// Tiny argument-parsing helpers shared by the pathview CLI tools, plus the
// common flag surface every tool exposes: --help / --version and the
// observability trio (--trace, --pv-stats, --self-profile).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/db/trace.hpp"
#include "pathview/fault/fault.hpp"
#include "pathview/model/program.hpp"
#include "pathview/obs/export.hpp"
#include "pathview/obs/obs.hpp"
#include "pathview/obs/self_profile.hpp"
#include "pathview/support/error.hpp"

namespace pathview::tools {

inline constexpr const char* kVersion = "0.4.0";

/// Common-flag help text appended to every tool's usage string.
inline constexpr const char* kCommonUsage =
    "common flags:\n"
    "  --threads N                worker threads for parallel phases\n"
    "                             (simulation, correlation, reduction-tree\n"
    "                             merge; 0 = all hardware threads)\n"
    "  --trace FILE.json          write a Chrome trace-event file of this\n"
    "                             run (also enabled by $PATHVIEW_TRACE)\n"
    "  --pv-stats                 print a phase/counter summary to stderr\n"
    "  --self-profile FILE.{xml|pvdb}\n"
    "                             write this run's span tree as an\n"
    "                             experiment database (open with pvviewer)\n"
    "  --fault-spec SPEC          install a deterministic fault-injection\n"
    "                             plan (also read from $PATHVIEW_FAULTS;\n"
    "                             see docs/robustness.md for the grammar)\n"
    "  --version                  print version and exit\n"
    "  --help                     print usage and exit\n";

/// `--name value` / `--name=value` flags plus positional arguments. The
/// tool's standalone flags (booleans, and flags whose optional value must
/// be attached with `=`), plus the common --pv-stats / --help / -h /
/// --version, never take the next token as their value, so
/// `pvviewer --salvage exp.pvdb` keeps its database positional.
struct Args {
  Args(int argc, char** argv,
       std::initializer_list<std::string_view> standalone = {}) {
    const auto is_standalone = [&](std::string_view name) {
      for (const std::string_view b : {"pv-stats", "help", "h", "version"})
        if (name == b) return true;
      for (const std::string_view b : standalone)
        if (name == b) return true;
      return false;
    };
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (!a.empty() && a[0] == '-' && a != "-") {
        a = a.substr(a.rfind("--", 0) == 0 ? 2 : 1);
        const std::size_t eq = a.find('=');
        if (eq != std::string::npos) {
          flags.emplace_back(a.substr(0, eq), a.substr(eq + 1));
        } else if (i + 1 < argc && argv[i + 1][0] != '-' &&
                   !is_standalone(a)) {
          flags.emplace_back(a, argv[++i]);
        } else {
          flags.emplace_back(a, "");
        }
      } else {
        positional.push_back(std::move(a));
      }
    }
  }

  bool has(const std::string& name) const {
    for (const auto& [k, v] : flags)
      if (k == name) return true;
    return false;
  }

  std::string flag_str(const std::string& name,
                       const std::string& fallback) const {
    for (const auto& [k, v] : flags)
      if (k == name) return v;
    return fallback;
  }

  long flag(const std::string& name, long fallback) const {
    for (const auto& [k, v] : flags)
      if (k == name) return std::strtol(v.c_str(), nullptr, 10);
    return fallback;
  }

  std::vector<std::pair<std::string, std::string>> flags;
  std::vector<std::string> positional;
};

/// Handle --help / --version uniformly: help and version go to stdout and
/// exit 0 (a request, not an error); usage errors are the caller's business
/// (print `usage` to stderr, exit 2). Returns true when the tool must exit
/// with `*exit_code`.
inline bool handle_common_flags(const Args& args, const char* tool,
                                const std::string& usage, int* exit_code) {
  if (args.has("help") || args.has("h")) {
    std::fputs(usage.c_str(), stdout);
    std::fputs(kCommonUsage, stdout);
    *exit_code = 0;
    return true;
  }
  if (args.has("version")) {
    std::printf("%s (pathview) %s\n", tool, kVersion);
    *exit_code = 0;
    return true;
  }
  // Fault-injection wiring, shared by every tool: an explicit --fault-spec
  // wins over $PATHVIEW_FAULTS. A malformed spec is a usage error.
  try {
    if (const std::string spec = args.flag_str("fault-spec", "");
        !spec.empty())
      fault::install_spec(spec);
    else
      fault::install_from_env();
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: bad fault spec: %s\n", tool, e.what());
    *exit_code = 2;
    return true;
  }
  return false;
}

/// The unified `--threads N` flag (0 = all hardware threads). Every tool
/// accepts it; tools with parallel phases thread it into PipelineOptions /
/// ParallelConfig.
inline std::uint32_t thread_count(const Args& args) {
  const long v = args.flag("threads", 0);
  return v < 0 ? 0u : static_cast<std::uint32_t>(v);
}

/// Print `usage` (plus the common-flag help) to stderr; returns 2 so tools
/// can `return tools::usage_error(kUsage);`.
inline int usage_error(const std::string& usage) {
  std::fputs(usage.c_str(), stderr);
  std::fputs(kCommonUsage, stderr);
  return 2;
}

/// Per-run observability wiring: enables tracing when any of --trace,
/// --pv-stats, --self-profile or $PATHVIEW_TRACE is present; finish()
/// writes/prints whatever was requested once the tool's work is done.
class ObsSession {
 public:
  ObsSession(const Args& args, std::string tool) : tool_(std::move(tool)) {
    trace_path_ = args.flag_str("trace", "");
    if (trace_path_.empty()) {
      if (const char* env = std::getenv("PATHVIEW_TRACE"); env && *env)
        trace_path_ = env;
    }
    stats_ = args.has("pv-stats");
    self_profile_path_ = args.flag_str("self-profile", "");
    if (!trace_path_.empty() || stats_ || !self_profile_path_.empty())
      obs::set_enabled(true);
  }

  /// Emit the requested trace artifacts. Call after all spans have closed.
  void finish() const {
    if (trace_path_.empty() && !stats_ && self_profile_path_.empty()) return;
    const obs::TraceSnapshot snap = obs::snapshot();
    if (!trace_path_.empty())
      obs::write_text_file(trace_path_, obs::to_chrome_trace(snap));
    if (!self_profile_path_.empty()) {
      const db::Experiment exp =
          obs::self_profile_experiment(snap, tool_ + "-self");
      const bool binary = self_profile_path_.size() > 5 &&
                          self_profile_path_.substr(
                              self_profile_path_.size() - 5) == ".pvdb";
      if (binary)
        db::save_binary(exp, self_profile_path_);
      else
        db::save_xml(exp, self_profile_path_);
    }
    if (stats_)
      std::fprintf(stderr, "\n[%s self-instrumentation]\n%s", tool_.c_str(),
                   obs::phase_summary(snap).c_str());
  }

 private:
  std::string tool_;
  std::string trace_path_;
  std::string self_profile_path_;
  bool stats_ = false;
};

/// Load an experiment database via db::open — the format is sniffed from
/// the file content (PVDB magic vs XML), not the extension.
inline db::Experiment load_experiment(const std::string& path) {
  return std::move(db::open(path).experiment);
}

/// Salvage-aware variant (the --salvage flag): damaged optional content is
/// skipped and recorded in `report` instead of failing the load.
inline db::Experiment load_experiment(const std::string& path, bool salvage,
                                      db::LoadReport* report) {
  db::OpenResult r = db::open(path, db::OpenOptions{salvage});
  if (report != nullptr) report->merge(r.report);
  return std::move(r.experiment);
}

/// Print a salvage load's damage report to stderr, one warning line per
/// note plus a closing degraded banner — shared by every tool that loads
/// with --salvage so partial data is never presented silently.
inline void print_load_report(const char* tool, const db::LoadReport& report) {
  if (report.clean()) return;
  for (const std::string& note : report.notes)
    std::fprintf(stderr, "%s: warning: %s\n", tool, note.c_str());
  if (report.degraded)
    std::fprintf(stderr,
                 "%s: warning: DEGRADED DATA — this profile is missing "
                 "measured data (%s)\n",
                 tool, report.summary().c_str());
}

/// Warn (to stderr) about every trace whose footer index was damaged and
/// rebuilt by scanning — shared by pvtrace and pvviewer --timeline so a
/// truncated trace from a crashed capture is always surfaced.
inline void warn_recovered_traces(
    const char* tool,
    const std::vector<std::unique_ptr<db::TraceReader>>& traces) {
  for (const auto& tr : traces)
    if (tr->recovered())
      std::fprintf(stderr,
                   "%s: warning: rank %u trace index was damaged; "
                   "recovered %llu record(s) by scanning\n",
                   tool, tr->rank(),
                   static_cast<unsigned long long>(tr->size()));
}

/// "cycles" / "instructions" / "flops" / "l1" / "l2" / "idle".
inline model::Event parse_event(const std::string& name) {
  if (name == "cycles") return model::Event::kCycles;
  if (name == "instructions") return model::Event::kInstructions;
  if (name == "flops") return model::Event::kFlops;
  if (name == "l1") return model::Event::kL1Miss;
  if (name == "l2") return model::Event::kL2Miss;
  if (name == "idle") return model::Event::kIdle;
  throw InvalidArgument("unknown event '" + name +
                        "' (cycles|instructions|flops|l1|l2|idle)");
}

/// The `--trace-events[=EVENT]` capture flag shared by pvrun and pvprof:
/// records a per-rank time-centric trace of the given event's samples
/// (default: cycles). Returns false when the flag is absent.
inline bool trace_events_flag(const Args& args, model::Event* event) {
  if (!args.has("trace-events")) return false;
  const std::string name = args.flag_str("trace-events", "");
  *event = name.empty() ? model::Event::kCycles : parse_event(name);
  return true;
}

}  // namespace pathview::tools
