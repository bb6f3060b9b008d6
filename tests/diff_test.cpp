// Tests for pairwise differencing of two runs (paper Sec. VI-A): a
// 2-member ensemble aligned by name, plus the scaling-loss column.
#include <gtest/gtest.h>

#include "pathview/ensemble/ensemble.hpp"
#include "pathview/model/builder.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/structure/lower.hpp"
#include "pathview/structure/recovery.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/combustion.hpp"
#include "pathview/workloads/subsurface.hpp"

namespace pathview::ensemble {
namespace {

using model::Event;
using Member = std::shared_ptr<const db::Experiment>;

/// Build an experiment from a tiny program: main -> work(base_cycles),
/// optionally plus an extra procedure only present in variant B.
Member tiny_experiment(double work_cycles, bool with_extra,
                       const std::string& name) {
  model::ProgramBuilder b;
  const auto file = b.file("app.c", b.module("app.x"));
  const auto mainp = b.proc("main", file, 1);
  const auto work = b.proc("work", file, 10);
  b.in(mainp).call(2, work);
  b.in(work).compute(11, model::make_cost(work_cycles));
  if (with_extra) {
    const auto extra = b.proc("extra", file, 20);
    b.in(mainp).call(3, extra);
    b.in(extra).compute(21, model::make_cost(500));
  }
  b.set_entry(mainp);
  const model::Program prog = b.finish();
  const structure::Lowering lw(prog);
  const structure::StructureTree tree =
      structure::recover_structure(lw.image());
  sim::RunConfig rc;
  rc.sampler.sample(Event::kCycles, 1.0);
  sim::ExecutionEngine eng(prog, lw, rc);
  const prof::CanonicalCct cct = prof::correlate(eng.run(), tree);
  return std::make_shared<const db::Experiment>(
      db::Experiment::capture(tree, cct, name, 1));
}

/// Strong-scaling diff of two single-rank runs over cycles.
ScalingDiff diff(const Member& base, const Member& scaled) {
  return scaling_diff(base, scaled, Event::kCycles, 1, 1);
}

TEST(Diff, AlignsByNameAcrossIndependentTrees) {
  const Member base = tiny_experiment(1000, false, "base");
  const Member scaled = tiny_experiment(1300, false, "scaled");
  const ScalingDiff d = diff(base, scaled);
  // Identical shapes: the union has exactly the base's CCT size.
  EXPECT_EQ(d.cct().size(), base->cct().size());
  // Root loss = 300 (strong scaling: scaled - base).
  EXPECT_DOUBLE_EQ(d.table().get(d.loss_col, 0), 300.0);
  // The work frame carries the regression.
  bool found = false;
  for (prof::CctNodeId n = 1; n < d.cct().size(); ++n)
    if (d.cct().label(n) == "work") {
      EXPECT_DOUBLE_EQ(d.table().get(d.base_col, n), 1000.0);
      EXPECT_DOUBLE_EQ(d.table().get(d.scaled_col, n), 1300.0);
      EXPECT_DOUBLE_EQ(d.table().get(d.loss_col, n), 300.0);
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Diff, KeepsScopesUniqueToEitherSide) {
  const Member base = tiny_experiment(1000, false, "base");
  const Member scaled = tiny_experiment(1000, true, "scaled");
  const ScalingDiff d = diff(base, scaled);
  EXPECT_GT(d.cct().size(), base->cct().size());
  bool found_extra = false;
  for (prof::CctNodeId n = 1; n < d.cct().size(); ++n)
    if (d.cct().label(n) == "extra") {
      found_extra = true;
      EXPECT_DOUBLE_EQ(d.table().get(d.base_col, n), 0.0);
      EXPECT_DOUBLE_EQ(d.table().get(d.scaled_col, n), 500.0);
    }
  EXPECT_TRUE(found_extra);
  // Loss at the root is exactly the new procedure's cost.
  EXPECT_DOUBLE_EQ(d.table().get(d.loss_col, 0), 500.0);
}

TEST(Diff, WeakScalingMode) {
  const Member base = tiny_experiment(1000, false, "base");
  const Member scaled = tiny_experiment(2000, false, "scaled");
  const ScalingDiff d = scaling_diff(base, scaled, Event::kCycles, 1, 2,
                                     metrics::ScalingMode::kWeak);
  // Doubled totals on doubled ranks: ideal weak scaling, zero loss.
  EXPECT_DOUBLE_EQ(d.table().get(d.loss_col, 0), 0.0);
}

TEST(Diff, FluxLoopImprovementShowsAsNegativeLoss) {
  // The combustion pair: the optimized variant's flux loop must show a
  // strongly negative loss (it got 2.9x faster).
  auto capture = [](bool optimized) {
    workloads::CombustionWorkload w = workloads::make_combustion(optimized);
    sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
    const prof::CanonicalCct cct = prof::correlate(eng.run(), *w.tree);
    return std::make_shared<const db::Experiment>(db::Experiment::capture(
        *w.tree, cct, optimized ? "opt" : "base", 1));
  };
  const ScalingDiff d = diff(capture(false), capture(true));
  double flux_loss = 0;
  for (prof::CctNodeId n = 1; n < d.cct().size(); ++n)
    if (d.cct().label(n) == "loop at rhsf.f90: 210")
      flux_loss = d.table().get(d.loss_col, n);
  // Base flux ~0.0862 * 4e8; optimized ~1/2.9 of that.
  EXPECT_LT(flux_loss, -2.0e7);
}

TEST(Scaling, StrongScalingLossSemantics) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(4);
  sim::ParallelConfig pc;
  pc.nranks = 4;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  prof::PipelineOptions popts;
  popts.nthreads = 2;
  const prof::Pipeline pipeline(popts);
  const prof::CanonicalCct base =
      pipeline.merge(pipeline.correlate(raws, *w.tree));
  const auto run = [&](const prof::CanonicalCct& cct, std::uint32_t nranks) {
    return std::make_shared<const db::Experiment>(
        db::Experiment::capture(*w.tree, cct, "subsurface", nranks));
  };

  // "Scaled" run identical in aggregate = ideal strong scaling: zero loss.
  prof::CanonicalCct same(&*w.tree);
  same.merge(base);
  const ScalingDiff ideal =
      scaling_diff(run(base, 4), run(same, 8), Event::kCycles, 4, 8);
  EXPECT_NEAR(ideal.table().get(ideal.loss_col, 0), 0.0, 1e-6);

  // A scaled run whose aggregate DOUBLES (ranks redo all the work): the
  // loss at the root equals the base total.
  prof::CanonicalCct doubled(&*w.tree);
  doubled.merge(base);
  doubled.merge(base);
  const ScalingDiff bad =
      scaling_diff(run(base, 4), run(doubled, 8), Event::kCycles, 4, 8);
  const double root_base = bad.table().get(bad.base_col, 0);
  EXPECT_NEAR(bad.table().get(bad.loss_col, 0), root_base, root_base * 0.01);

  // Under the weak-scaling model the doubled run is exactly ideal.
  const ScalingDiff weak =
      scaling_diff(run(base, 4), run(doubled, 8), Event::kCycles, 4, 8,
                   metrics::ScalingMode::kWeak);
  EXPECT_NEAR(weak.table().get(weak.loss_col, 0), 0.0, 1e-6);
}

}  // namespace
}  // namespace pathview::ensemble
