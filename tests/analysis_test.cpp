// Tests for load-imbalance analysis and histograms.
#include <gtest/gtest.h>

#include "pathview/support/error.hpp"

#include "pathview/analysis/imbalance.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/workloads/subsurface.hpp"

namespace pathview::analysis {
namespace {

using model::Event;

TEST(Histogram, BinsAndRender) {
  const std::vector<double> xs{1, 1, 2, 3, 4, 4, 4, 9};
  Histogram h(xs, 4);
  EXPECT_EQ(h.total(), 8u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 9.0);
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < h.num_bins(); ++b) sum += h.count(b);
  EXPECT_EQ(sum, 8u);
  EXPECT_EQ(h.count(3), 1u);  // the 9
  const std::string r = h.render(20);
  EXPECT_NE(r.find('#'), std::string::npos);
  EXPECT_THROW(Histogram(xs, 0), InvalidArgument);
}

TEST(Histogram, DegenerateInputs) {
  Histogram empty({}, 3);
  EXPECT_EQ(empty.total(), 0u);
  Histogram constant({5, 5, 5}, 3);
  EXPECT_EQ(constant.count(0), 3u);  // zero width: everything in bin 0
}

struct ParallelFixture {
  explicit ParallelFixture(std::uint32_t nranks)
      : w(workloads::make_subsurface(nranks)) {
    sim::ParallelConfig pc;
    pc.nranks = w.nranks;
    pc.base = w.run;
    raws = sim::run_parallel(*w.program, *w.lowering, pc);
    summary = std::make_unique<prof::SummaryCct>(
        prof::summarize(raws, *w.tree, 2));
    prof::PipelineOptions popts;
    popts.nthreads = 2;
    parts = prof::Pipeline(popts).correlate(raws, *w.tree);
  }
  workloads::SubsurfaceWorkload w;
  std::vector<sim::RawProfile> raws;
  std::unique_ptr<prof::SummaryCct> summary;
  std::vector<prof::CanonicalCct> parts;
};

TEST(Imbalance, ReportRanksByTotalIdleness) {
  ParallelFixture f(16);
  const ImbalanceReport rep = analyze_imbalance(*f.summary, Event::kIdle, 10);
  ASSERT_FALSE(rep.rows.empty());
  for (std::size_t i = 1; i < rep.rows.size(); ++i)
    EXPECT_GE(rep.rows[i - 1].total, rep.rows[i].total);
  // The top row's imbalance stats are consistent.
  const ImbalanceRow& top = rep.rows.front();
  EXPECT_GE(top.max, top.mean);
  EXPECT_GE(top.mean, top.min);
  EXPECT_GT(top.imbalance_pct, 0.0);
}

TEST(Imbalance, HotPathFindsTimestepLoop) {
  ParallelFixture f(16);
  const auto path = imbalance_hot_path(*f.summary, Event::kIdle, 0.5);
  // The drill-down must pass through the main iteration loop at
  // timestepper.F90:384 (the paper's Fig. 7 finding).
  bool found = false;
  for (prof::CctNodeId id : path)
    if (f.summary->cct.label(id).find("timestepper.F90: 384") !=
        std::string::npos)
      found = true;
  EXPECT_TRUE(found) << "path did not traverse the timestep loop";
}

TEST(Imbalance, PerRankSeriesMatchesSummary) {
  ParallelFixture f(8);
  // Pick the stepper frame (child chain root->main->pflotran->stepper).
  const auto path = imbalance_hot_path(*f.summary, Event::kCycles, 0.5);
  ASSERT_GE(path.size(), 2u);
  const prof::CctNodeId node = path[1];
  const std::vector<double> series =
      per_rank_inclusive(f.parts, f.summary->cct, node, Event::kCycles);
  ASSERT_EQ(series.size(), 8u);
  OnlineStats check;
  for (double v : series) check.add(v);
  const OnlineStats& st = f.summary->stats(node, Event::kCycles);
  EXPECT_NEAR(check.mean(), st.mean(), 1e-6);
  EXPECT_NEAR(check.max(), st.max(), 1e-6);
  EXPECT_NEAR(check.min(), st.min(), 1e-6);
}

TEST(Imbalance, IdlenessTracksInjectedFactors) {
  ParallelFixture f(12);
  // Ranks with the largest work factor should have the least idleness.
  const std::vector<double> idle = per_rank_inclusive(
      f.parts, f.summary->cct, prof::kCctRoot, Event::kIdle);
  ASSERT_EQ(idle.size(), 12u);
  const auto& factors = f.w.rank_factor;
  const std::size_t slowest = static_cast<std::size_t>(
      std::max_element(factors.begin(), factors.end()) - factors.begin());
  for (std::size_t r = 0; r < idle.size(); ++r)
    EXPECT_LE(idle[slowest], idle[r] + 1e-9);
}

}  // namespace
}  // namespace pathview::analysis
