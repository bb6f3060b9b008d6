// pvrun — the hpcrun analog: simulate and profile a workload, then dump the
// raw address-level profile (object-code view) or write the raw totals.
//
// Usage: pvrun <workload> [--ranks N] [--seed S] [--top N] [--event NAME]
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "pathview/db/measurement.hpp"
#include "pathview/db/trace.hpp"
#include "pathview/ui/object_view.hpp"
#include "pathview/workloads/registry.hpp"
#include "tool_util.hpp"

using namespace pathview;

namespace {

std::string usage_text() {
  std::string usage =
      "usage: pvrun <workload> [--ranks N] [--seed S] [--top N] "
      "[--event NAME] [-o measurement-dir] [--trace-events[=EVENT]]\n"
      "  --trace-events: also capture a per-rank time-centric trace of the\n"
      "                  event's samples (default cycles) as raw\n"
      "                  rank-NNNNN.pvtr files in the -o directory\n"
      "workloads:\n";
  for (const auto& wl : workloads::list_workloads()) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-22s %s\n", wl.name.c_str(),
                  wl.description.c_str());
    usage += line;
  }
  return usage;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, {"trace-events"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvrun", usage_text(), &exit_code))
    return exit_code;
  if (args.positional.empty()) return tools::usage_error(usage_text());
  try {
    tools::ObsSession obs_session(args, "pvrun");
    {
      PV_SPAN("pvrun.run");
      const auto nranks = static_cast<std::uint32_t>(args.flag("ranks", 1));
      const auto seed = static_cast<std::uint64_t>(args.flag("seed", 42));
      const auto top = static_cast<std::size_t>(args.flag("top", 25));
      const model::Event event =
          tools::parse_event(args.flag_str("event", "cycles"));

      workloads::Workload w =
          workloads::make_workload(args.positional[0], nranks, seed);

      const std::string outdir = args.flag_str("o", "");
      model::Event trace_event = model::Event::kCycles;
      const bool trace = tools::trace_events_flag(args, &trace_event);
      if (trace && outdir.empty())
        throw InvalidArgument("--trace-events requires -o measurement-dir");

      std::vector<std::unique_ptr<db::TraceWriter>> tracers;
      if (trace) {
        std::filesystem::create_directories(outdir);
        w.run.trace.event = trace_event;
        db::TraceWriterOptions topts;
        topts.with_leaf = true;  // raw traces resolve leaves via pvprof
        for (std::uint32_t r = 0; r < std::max(1u, nranks); ++r)
          tracers.push_back(std::make_unique<db::TraceWriter>(
              db::raw_trace_path(outdir, r), r, topts));
      }
      std::function<sim::TraceSink*(std::uint32_t, std::uint32_t)> sink_for;
      if (trace)
        sink_for = [&tracers](std::uint32_t rank, std::uint32_t) {
          return static_cast<sim::TraceSink*>(tracers[rank].get());
        };
      const auto profiles = workloads::profile_workload(
          w, nranks, tools::thread_count(args), std::move(sink_for));

      model::EventVector totals;
      for (const auto& p : profiles) totals += p.totals();
      std::printf("workload '%s', %u rank(s)\n", args.positional[0].c_str(),
                  nranks);
      for (std::size_t e = 0; e < model::kNumEvents; ++e)
        if (totals.v[e] > 0)
          std::printf("  %-14s %.6g\n",
                      model::event_name(static_cast<model::Event>(e)),
                      totals.v[e]);

      if (!outdir.empty()) {
        std::filesystem::create_directories(outdir);
        db::save_measurements(profiles, outdir);
        std::printf("wrote %zu measurement file(s) to %s/\n", profiles.size(),
                    outdir.c_str());
      }
      if (trace) {
        std::uint64_t records = 0;
        for (auto& t : tracers) {
          t->close();
          records += t->records_written();
        }
        std::printf("wrote %zu raw trace file(s) (%llu records) to %s/\n",
                    tracers.size(), static_cast<unsigned long long>(records),
                    outdir.c_str());
      }

      std::printf("\nrank 0 object-code view (top %zu by %s):\n", top,
                  model::event_name(event));
      std::fputs(ui::render_object_view(profiles[0], w.lowering->image(),
                                        event, top)
                     .c_str(),
                 stdout);
    }
    obs_session.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvrun: %s\n", e.what());
    return 1;
  }
}
