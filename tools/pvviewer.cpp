// pvviewer — the hpcviewer analog: load an experiment database (XML or
// binary) and explore it with the interactive command language; stored
// derived-metric definitions are applied on load.
//
// Usage: pvviewer <experiment.{xml|pvdb}> [--script cmds...]
//        echo "hotpath\nrender\nquit" | pvviewer exp.pvdb
#include <cstdio>
#include <iostream>
#include <string>

#include "pathview/analysis/timeline.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/db/trace.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/ui/command_interpreter.hpp"
#include "pathview/ui/timeline.hpp"
#include "tool_util.hpp"

using namespace pathview;

namespace {

const char kUsage[] =
    "usage: pvviewer <experiment.{xml|pvdb}> [--salvage] [--timeline[=DEPTH]]\n"
    "  --salvage:        load a damaged database non-strictly: skip corrupt\n"
    "                    sections, report what was dropped, and flag the\n"
    "                    session as degraded\n"
    "  --timeline:       print the rank/time trace timeline before the\n"
    "                    interactive session (requires the experiment's\n"
    "                    .trace directory, see pvprof --trace-events;\n"
    "                    pvtrace offers the full timeline interface)\n"
    "  --timeline-width N  timeline pixel columns (default 72)\n"
    "  --trace-dir DIR     trace directory (default <experiment>.trace)\n";

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, {"salvage", "timeline"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvviewer", kUsage, &exit_code))
    return exit_code;
  if (args.positional.empty()) return tools::usage_error(kUsage);
  try {
    tools::ObsSession obs_session(args, "pvviewer");
    {
      PV_SPAN("pvviewer.run");
      const std::string& path = args.positional[0];
      db::LoadReport report;
      const db::Experiment exp =
          tools::load_experiment(path, args.has("salvage"), &report);
      tools::print_load_report("pvviewer", report);
      std::printf("experiment '%s': %zu CCT scopes, %u rank(s), %zu stored "
                  "derived metric(s)%s\n",
                  exp.name().c_str(), exp.cct().size(), exp.nranks(),
                  exp.user_metrics().size(),
                  exp.degraded() ? " [DEGRADED]" : "");
      if (exp.degraded() && !exp.dropped_ranks().empty()) {
        std::string ranks;
        for (const std::uint32_t r : exp.dropped_ranks())
          ranks += (ranks.empty() ? "" : ", ") + std::to_string(r);
        std::printf("DEGRADED: missing measured data from rank(s) %s\n",
                    ranks.c_str());
      }

      if (args.has("timeline")) {
        const auto traces = db::open_traces(
            args.flag_str("trace-dir", db::trace_dir_for(path)));
        tools::warn_recovered_traces("pvviewer", traces);
        analysis::TimelineOptions topts;
        const std::string dstr = args.flag_str("timeline", "");
        topts.depth =
            dstr.empty() ? 1 : static_cast<int>(std::strtol(dstr.c_str(), nullptr, 10));
        topts.width =
            static_cast<std::size_t>(args.flag("timeline-width", 72));
        std::fputs(ui::render_timeline(
                       analysis::build_timeline(traces, exp.cct(), topts),
                       exp.cct())
                       .c_str(),
                   stdout);
      }

      const metrics::Attribution attr =
          metrics::attribute_metrics(exp.cct(), metrics::all_events());
      ui::ViewerController viewer(exp.cct(), attr);
      // Re-apply the experiment's saved derived metrics across all views.
      for (const metrics::MetricDesc& d : exp.user_metrics())
        viewer.add_derived(d.name, d.formula);

      ui::CommandInterpreter interp(viewer, std::cout);
      interp.run(std::cin, /*prompt=*/true);
    }
    obs_session.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvviewer: %s\n", e.what());
    return 1;
  }
}
