// pvbench: end-to-end and per-layer benchmark of pathview.
//
//   pvbench --workload NAME|all [--seed S] [--seconds N] [--trace DIR]
//           [--spec BENCHMARK.json] [--workdir DIR] [--smoke]
//           [--runs K --record FILE [--git-rev REV]]
//   pvbench compare BASE.json CUR.json [--spec BENCHMARK.json]
//
// One workload per process: `all` re-executes this binary once per
// workload (and per seed with --runs), so peak memory belongs to a single
// workload. The last line a single-workload run prints is one JSON object
// with the run's verdict and metrics; the exit code is nonzero when any
// correctness check failed.
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "pathview/obs/export.hpp"
#include "pathview/serve/json.hpp"
#include "pathview/support/error.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using pathview::serve::JsonValue;
using namespace pvbench;

constexpr char kUsage[] =
    "usage: pvbench --workload NAME|all [--seed S] [--seconds N] "
    "[--trace DIR]\n"
    "               [--spec BENCHMARK.json] [--workdir DIR] [--smoke]\n"
    "               [--runs K --record FILE [--git-rev REV]]\n"
    "       pvbench compare BASE.json CUR.json [--spec BENCHMARK.json]\n";

struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;
  bool smoke = false;

  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--smoke") {
        smoke = true;
      } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
        flags[a.substr(2)] = argv[++i];
      } else if (a.rfind("--", 0) == 0) {
        throw pathview::Error("flag " + a + " needs a value");
      } else {
        positional.push_back(a);
      }
    }
  }
  std::string get(const std::string& k, const std::string& dflt) const {
    auto it = flags.find(k);
    return it == flags.end() ? dflt : it->second;
  }
};

/// Run this binary as a child on one workload; returns its exit status and
/// the last line it printed (echoing all of its output).
int run_child(const std::vector<std::string>& args, std::string* last_line) {
  int fds[2];
  if (::pipe(fds) != 0) throw pathview::Error("pipe failed");
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) throw pathview::Error("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
    std::fwrite(buf, 1, static_cast<std::size_t>(n), stdout);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  *last_line = out.substr(out.rfind('\n') + 1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

/// `--workload all`: every workload of the spec, `runs` seeds each, in
/// child processes; optionally aggregated into a runs file for `compare`.
int run_all(const Args& args, const Spec& spec, const Config& cfg) {
  const int runs = std::stoi(args.get("runs", "1"));
  const std::string record = args.get("record", "");
  JsonValue workloads = JsonValue::object();
  JsonValue seeds = JsonValue::array();
  for (int i = 0; i < runs; ++i)
    seeds.push(JsonValue::number(cfg.seed + static_cast<std::uint64_t>(i)));
  int rc = 0;
  for (const std::string& w : spec.workloads) {
    JsonValue per_run = JsonValue::array();
    for (int i = 0; i < runs; ++i) {
      // The smoke test exercises both kinds of run; otherwise one kind.
      std::vector<std::string> traces;
      if (!cfg.smoke || cfg.traced()) traces.push_back(cfg.trace_dir);
      if (cfg.smoke) traces.insert(traces.begin(), "");
      for (const std::string& trace : traces) {
        std::vector<std::string> child = {
            "pvbench", "--workload", w, "--seed",
            std::to_string(cfg.seed + static_cast<std::uint64_t>(i)),
            "--seconds", args.get("seconds", "10"), "--spec",
            args.get("spec", "BENCHMARK.json"), "--workdir",
            cfg.workdir + "/" + w};
        if (!trace.empty()) child.insert(child.end(), {"--trace", trace});
        if (cfg.smoke) child.push_back("--smoke");
        std::string last;
        const int status = run_child(child, &last);
        if (status != 0) rc = 1;
        if (!record.empty() && status == 0) {
          JsonValue metrics = JsonValue::object();
          const JsonValue result = JsonValue::parse(last);
          if (const JsonValue* m = result.find("metrics"))
            for (const auto& [name, v] : m->members())
              metrics.set(name, JsonValue::number(v.get_number("value", 0)));
          per_run.push(std::move(metrics));
        }
      }
    }
    if (!record.empty()) {
      JsonValue summary = JsonValue::object();
      for (const MetricSpec& m : cfg.traced() ? spec.per_layer : spec.end_to_end) {
        std::vector<double> v;
        for (const JsonValue& r : per_run.items())
          if (const JsonValue* x = r.find(m.name)) v.push_back(x->as_number());
        const Summary s = summarize(v);
        summary.set(m.name, JsonValue::object()
                                .set("median", JsonValue::number(s.median))
                                .set("q1", JsonValue::number(s.q1))
                                .set("q3", JsonValue::number(s.q3))
                                .set("n", JsonValue::number(
                                              static_cast<std::uint64_t>(s.n))));
      }
      workloads.set(w, JsonValue::object()
                           .set("runs", std::move(per_run))
                           .set("summary", std::move(summary)));
    }
  }
  if (!record.empty()) {
    JsonValue out = JsonValue::object();
    out.set("schema", JsonValue::string("pvbench-runs-v1"));
    out.set("git_rev", JsonValue::string(args.get("git-rev", "")));
    out.set("nproc", JsonValue::number(static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency())));
    out.set("seconds", JsonValue::number(cfg.seconds));
    out.set("seeds", std::move(seeds));
    out.set("workloads", std::move(workloads));
    pathview::obs::write_text_file(record, out.dump() + "\n");
    std::printf("[wrote %s]\n", record.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // End-to-end numbers are measured with span recording off, whatever the
  // environment says (PATHVIEW_TRACE turns it on at startup).
  pathview::obs::set_enabled(false);
  // Keep freed heap memory mapped: every rep then reuses pages the previous
  // one faulted in, instead of paying first-touch page faults again. On a
  // virtual machine those faults cost a varying multiple of the work itself;
  // peak_rss_mb still reports the memory a rep needs.
  ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
  ::mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  try {
    const Args args(argc, argv);
    const Spec spec = Spec::load(args.get("spec", "BENCHMARK.json"));
    if (!args.positional.empty()) {
      if (args.positional[0] != "compare" || args.positional.size() != 3) {
        std::fputs(kUsage, stderr);
        return 2;
      }
      return compare_runs(spec, args.positional[1], args.positional[2]);
    }

    Config cfg;
    cfg.workload = args.get("workload", "");
    cfg.seed = std::stoull(args.get("seed", "7"));
    cfg.seconds = std::stod(args.get("seconds", "10"));
    cfg.trace_dir = args.get("trace", "");
    cfg.workdir = args.get("workdir", ".bench_build/pvbench/work");
    cfg.smoke = args.smoke;
    if (cfg.smoke) {
      cfg.sizes = Sizes{/*ranks=*/8, /*members=*/3, /*member_ranks=*/4,
                        /*setups=*/1, /*min_reps=*/2, /*max_reps=*/2};
      cfg.seconds = 1;
    } else if (cfg.traced()) {
      cfg.sizes.min_reps = 4;  // at least two untraced and two traced reps
    }
    if (cfg.workload == "all") return run_all(args, spec, cfg);

    Run run(spec, cfg);
    fs::remove_all(cfg.workdir);
    fs::create_directories(cfg.workdir);
    if (cfg.workload == "postmortem-divergent") {
      run_postmortem(cfg, Shape::kDivergent, run);
    } else if (cfg.workload == "postmortem-spmd") {
      run_postmortem(cfg, Shape::kSpmd, run);
    } else if (cfg.workload == "browse") {
      run_browse(cfg, run);
    } else if (cfg.workload == "compare") {
      run_compare(cfg, run);
    } else {
      std::fputs(kUsage, stderr);
      return 2;
    }
    fs::remove_all(cfg.workdir);
    return run.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvbench: %s\n", e.what());
    return 2;
  }
}
