// pvtrace — the hpctraceviewer analog: render the rank x time timeline of a
// traced run at any call-stack depth, compute time-windowed load-imbalance
// statistics, and detect phase boundaries.
//
// The view is built from the experiment database plus the canonical per-rank
// traces pvprof --trace-events writes next to it. Rendering probes each
// pixel's time window with indexed O(log segments) seeks, so cost scales
// with the pixel budget (width x ranks), not with trace length.
//
// Usage: pvtrace <experiment.{xml|pvdb}> [--depth N] [--width N] ...
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pathview/analysis/timeline.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/db/trace.hpp"
#include "pathview/obs/export.hpp"
#include "pathview/ui/timeline.hpp"
#include "tool_util.hpp"

using namespace pathview;

namespace {

const char kUsage[] =
    "usage: pvtrace <experiment.{xml|pvdb}> [--trace-dir DIR]\n"
    "               [--depth N] [--width N] [--t0 T] [--t1 T] [--probes N]\n"
    "               [--ansi] [--no-legend] [--svg FILE.svg]\n"
    "               [--stats] [--windows N] [--phases]\n"
    "  --trace-dir DIR  read traces from DIR (default <experiment>.trace)\n"
    "  --depth N        call-stack depth of the view (default 1)\n"
    "  --width N        timeline pixel columns (default 96)\n"
    "  --t0/--t1 T      restrict the view to virtual times [T0, T1]\n"
    "  --probes N       time probes per pixel cell (default 4)\n"
    "  --ansi           colorize cells (xterm-256 backgrounds)\n"
    "  --no-legend      omit the glyph -> scope legend\n"
    "  --svg FILE.svg   also export the timeline as an SVG document\n"
    "  --stats          time-windowed load-imbalance table\n"
    "  --windows N      windows for --stats (default 8)\n"
    "  --phases         report phase boundaries (dominant-scope changes)\n";

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, {"ansi", "no-legend", "stats", "phases"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvtrace", kUsage, &exit_code))
    return exit_code;
  if (args.positional.empty()) return tools::usage_error(kUsage);
  try {
    tools::ObsSession obs_session(args, "pvtrace");
    {
      PV_SPAN("pvtrace.run");
      const std::string& path = args.positional[0];
      const db::Experiment exp = tools::load_experiment(path);
      const auto traces = db::open_traces(
          args.flag_str("trace-dir", db::trace_dir_for(path)));

      std::uint64_t records = 0;
      for (const auto& tr : traces) records += tr->size();
      tools::warn_recovered_traces("pvtrace", traces);
      const auto [tb, te] = analysis::trace_time_range(traces);
      std::printf("experiment '%s': %zu trace rank(s), %llu record(s), "
                  "t=[%llu, %llu]\n",
                  exp.name().c_str(), traces.size(),
                  static_cast<unsigned long long>(records),
                  static_cast<unsigned long long>(tb),
                  static_cast<unsigned long long>(te));

      analysis::TimelineOptions topts;
      topts.width = static_cast<std::size_t>(args.flag("width", 96));
      topts.depth = static_cast<int>(args.flag("depth", 1));
      topts.t0 = static_cast<std::uint64_t>(args.flag("t0", 0));
      topts.t1 = static_cast<std::uint64_t>(args.flag("t1", 0));
      topts.probes = static_cast<int>(args.flag("probes", 4));
      const ui::TimelineImage img =
          analysis::build_timeline(traces, exp.cct(), topts);

      ui::TimelineRenderOptions ropts;
      ropts.ansi = args.has("ansi");
      ropts.show_legend = !args.has("no-legend");
      std::fputs(ui::render_timeline(img, exp.cct(), ropts).c_str(), stdout);

      if (const std::string svg = args.flag_str("svg", ""); !svg.empty()) {
        obs::write_text_file(svg, ui::timeline_svg(img, exp.cct()));
        std::printf("wrote SVG timeline to %s\n", svg.c_str());
      }

      if (args.has("stats")) {
        const auto windows =
            static_cast<std::size_t>(args.flag("windows", 8));
        std::printf("\nload imbalance, %zu window(s):\n", windows);
        std::printf("  %-24s %10s %10s %10s %10s\n", "window", "mean", "min",
                    "max", "imb%");
        for (const auto& s : analysis::windowed_imbalance(
                 traces, windows, topts.t0, topts.t1)) {
          char range[32];
          std::snprintf(range, sizeof range, "[%llu, %llu]",
                        static_cast<unsigned long long>(s.t0),
                        static_cast<unsigned long long>(s.t1));
          std::printf("  %-24s %10.1f %10.1f %10.1f %10.1f\n", range, s.mean,
                      s.min, s.max, s.imbalance_pct);
        }
      }

      if (args.has("phases")) {
        const auto phases = analysis::detect_phases(img);
        std::printf("\n%zu phase(s):\n", phases.size());
        for (std::size_t i = 0; i < phases.size(); ++i) {
          const auto& p = phases[i];
          std::printf("  phase %zu: t=[%llu, %llu] cols %zu..%zu  %s\n", i,
                      static_cast<unsigned long long>(p.t0),
                      static_cast<unsigned long long>(p.t1), p.col0, p.col1,
                      p.dominant == prof::kCctNull
                          ? "<idle>"
                          : exp.cct().label(p.dominant).c_str());
        }
      }
    }
    obs_session.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvtrace: %s\n", e.what());
    return 1;
  }
}
