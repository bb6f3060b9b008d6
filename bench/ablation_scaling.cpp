// Ablation / Sec. VI-A methodology: pinpointing scalability bottlenecks by
// scaling and differencing call path profiles from a pair of executions
// (Coarfa et al. [3], used by the paper to motivate derived metrics).
//
// A strong-scaled subsurface solver is run on P and 2P ranks; under ideal
// strong scaling the rank-aggregated cycles of every scope are conserved.
// The serial setup phase doubles instead — the scaling-loss metric must
// rank it first and a hot path over the loss column must land on it. The
// pair is differenced as a 2-member ensemble (ensemble::scaling_diff).
#include <cstdio>

#include "bench_util.hpp"
#include "pathview/ensemble/ensemble.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/support/format.hpp"
#include "pathview/workloads/subsurface.hpp"

using namespace pathview;

namespace {

std::shared_ptr<const db::Experiment> run_merged(
    workloads::SubsurfaceWorkload& w, std::uint32_t nranks) {
  sim::ParallelConfig pc;
  pc.nranks = nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  return std::make_shared<const db::Experiment>(db::Experiment::capture(
      *w.tree, prof::Pipeline().run(raws, *w.tree),
      "subsurface-" + std::to_string(nranks), nranks));
}

}  // namespace

int main(int argc, char** argv) {
  obs::set_enabled(true);  // collect counters for the JSON report
  constexpr std::uint32_t kBase = 4, kScaled = 8;
  workloads::SubsurfaceWorkload w =
      workloads::make_subsurface(kScaled, 42, /*strong_scale_base=*/kBase);
  const ensemble::ScalingDiff sa =
      ensemble::scaling_diff(run_merged(w, kBase), run_merged(w, kScaled),
                             model::Event::kCycles, kBase, kScaled);

  // Walk the loss column: hot path by maximal positive loss.
  const prof::CanonicalCct& u = sa.cct();
  const metrics::MetricTable& t = sa.table();
  std::puts("hot path over the scaling-loss column:");
  prof::CctNodeId cur = u.root();
  prof::CctNodeId last_named = u.root();
  for (;;) {
    prof::CctNodeId best = prof::kCctNull;
    double best_v = 0;
    for (prof::CctNodeId c : u.node(cur).children) {
      const double v = t.get(sa.loss_col, c);
      if (best == prof::kCctNull || v > best_v) {
        best = c;
        best_v = v;
      }
    }
    if (best == prof::kCctNull ||
        best_v < 0.5 * t.get(sa.loss_col, cur))
      break;
    cur = best;
    last_named = cur;
    std::printf("  %s  (loss %s)\n", u.label(cur).c_str(),
                format_scientific(best_v).c_str());
  }

  const double root_loss = t.get(sa.loss_col, u.root());
  const double root_base = t.get(sa.base_col, u.root());

  bench::Report rep("Scaling-loss ablation (strong-scaled PFLOTRAN)",
                    bench::meta_from_args(argc, argv, "ablation_scaling"));
  rep.info("aggregate base cycles", root_base);
  rep.info("aggregate scaling loss", root_loss);
  rep.row("loss is a small fraction of the run (serial part only)", 1,
          root_loss > 0 && root_loss < 0.25 * root_base ? 1 : 0, 0);
  rep.row("loss drill-down ends at the serial setup statement", 1,
          u.label(last_named).find("pflotran.F90: 6") != std::string::npos
              ? 1
              : 0,
          0);
  rep.write_json("BENCH_ablation_scaling.json");
  return rep.exit_code();
}
