// Unit tests for correlation, CCT merging and summarization.
#include <gtest/gtest.h>

#include "pathview/support/error.hpp"

#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/prof/summarize.hpp"
#include "pathview/sim/engine.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/workloads/mesh.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"
#include "pathview/workloads/subsurface.hpp"
#include "test_util.hpp"

namespace pathview::prof {
namespace {

using model::Event;

TEST(Correlate, PreservesSampleTotals) {
  workloads::PaperExample ex;
  const CanonicalCct cct = correlate(ex.profile(), ex.tree());
  EXPECT_EQ(cct.totals()[Event::kCycles],
            ex.profile().totals()[Event::kCycles]);
}

TEST(Correlate, RootInclusiveEqualsTotals) {
  workloads::PaperExample ex;
  const CanonicalCct cct = correlate(ex.profile(), ex.tree());
  const auto incl = cct.inclusive_samples();
  EXPECT_EQ(incl[kCctRoot][Event::kCycles], 10.0);
}

TEST(Correlate, DistinguishesCallingContexts) {
  workloads::PaperExample ex;
  const CanonicalCct cct = correlate(ex.profile(), ex.tree());
  // g appears in three distinct frame contexts (g1, g2, g3).
  int g_frames = 0;
  cct.walk([&](CctNodeId id, int) {
    const CctNode& n = cct.node(id);
    if (n.kind == CctKind::kFrame && cct.tree().name_of(n.scope) == "g")
      ++g_frames;
  });
  EXPECT_EQ(g_frames, 3);
}

TEST(Correlate, InlineScopesAppearInContext) {
  workloads::MeshWorkload w = workloads::make_mesh();
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const CanonicalCct cct = correlate(eng.run(), *w.tree);
  // get_coords' samples flow through kInline scopes (find, compare).
  int inline_nodes = 0;
  cct.walk([&](CctNodeId id, int) {
    if (cct.node(id).kind == CctKind::kInline) ++inline_nodes;
  });
  EXPECT_GE(inline_nodes, 2);
}

TEST(Merge, TotalsAreAdditive) {
  workloads::Workload w = workloads::make_random_program({.seed = 10});
  sim::ParallelConfig pc;
  pc.nranks = 3;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  PipelineOptions popts;
  popts.nthreads = 2;
  const Pipeline pipeline(popts);
  const auto parts = pipeline.correlate(raws, *w.tree);
  const CanonicalCct merged = pipeline.merge(parts);
  double expect = 0;
  for (const auto& p : parts) expect += p.totals()[Event::kCycles];
  EXPECT_DOUBLE_EQ(merged.totals()[Event::kCycles], expect);
}

TEST(Merge, PipelineMatchesSerialOracle) {
  // The reduction-tree merge must reproduce the serial left fold exactly.
  workloads::Workload w = workloads::make_random_program({.seed = 10});
  sim::ParallelConfig pc;
  pc.nranks = 2;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  PipelineOptions popts;
  popts.nthreads = 2;
  const Pipeline pipeline(popts);
  const CanonicalCct merged = pipeline.merge(pipeline.correlate(raws, *w.tree));
  const CanonicalCct ref = merge_serial(Pipeline().correlate(raws, *w.tree));
  ASSERT_EQ(merged.size(), ref.size());
  EXPECT_EQ(merged.totals()[Event::kCycles], ref.totals()[Event::kCycles]);
}

TEST(Merge, IsIdempotentOnStructure) {
  workloads::Workload w = workloads::make_random_program({.seed = 11});
  sim::ExecutionEngine eng(*w.program, *w.lowering, w.run);
  const CanonicalCct a = correlate(eng.run(), *w.tree);
  CanonicalCct u(&*w.tree);
  u.merge(a);
  const std::size_t size_once = u.size();
  u.merge(a);  // same shape again: no new nodes, doubled samples
  EXPECT_EQ(u.size(), size_once);
  EXPECT_DOUBLE_EQ(u.totals()[Event::kCycles],
                   2 * a.totals()[Event::kCycles]);
}

TEST(Merge, RejectsDifferentTrees) {
  workloads::Workload w1 = workloads::make_random_program({.seed = 12});
  workloads::Workload w2 = workloads::make_random_program({.seed = 12});
  sim::ExecutionEngine eng(*w1.program, *w1.lowering, w1.run);
  const CanonicalCct a = correlate(eng.run(), *w1.tree);
  CanonicalCct u(&*w2.tree);
  EXPECT_THROW(u.merge(a), InvalidArgument);
}

TEST(CloneWithTree, ProducesIdenticalShape) {
  workloads::PaperExample ex;
  const CanonicalCct cct = correlate(ex.profile(), ex.tree());
  structure::StructureTree tree_copy = ex.tree();
  const CanonicalCct clone = cct.clone_with_tree(&tree_copy);
  ASSERT_EQ(clone.size(), cct.size());
  for (CctNodeId i = 0; i < cct.size(); ++i) {
    EXPECT_EQ(clone.node(i).scope, cct.node(i).scope);
    EXPECT_EQ(clone.samples(i)[Event::kCycles], cct.samples(i)[Event::kCycles]);
  }
  EXPECT_EQ(&clone.tree(), &tree_copy);
}

TEST(Summarize, StatsCoverAllRanks) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(8);
  sim::ParallelConfig pc;
  pc.nranks = w.nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const SummaryCct sum = summarize(raws, *w.tree, 2);
  EXPECT_EQ(sum.nranks, 8u);
  for (CctNodeId n = 0; n < sum.cct.size(); ++n)
    EXPECT_EQ(sum.stats(n, Event::kCycles).count(), 8u);
}

TEST(Summarize, RootMeanEqualsMeanOfRankTotals) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(6);
  sim::ParallelConfig pc;
  pc.nranks = w.nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const SummaryCct sum = summarize(raws, *w.tree, 2);
  double total = 0;
  for (const auto& r : raws) total += r.totals()[Event::kCycles];
  EXPECT_NEAR(sum.stats(kCctRoot, Event::kCycles).mean(), total / 6.0, 1e-6);
  EXPECT_NEAR(sum.stats(kCctRoot, Event::kCycles).sum(), total, 1e-6);
}

TEST(Summarize, DetectsInjectedImbalance) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(16);
  sim::ParallelConfig pc;
  pc.nranks = w.nranks;
  pc.base = w.run;
  const auto raws = sim::run_parallel(*w.program, *w.lowering, pc);
  const SummaryCct sum = summarize(raws, *w.tree, 2);
  // Some rank idles (factors differ), so idle stddev at the root is > 0.
  EXPECT_GT(sum.stats(kCctRoot, Event::kIdle).stddev(), 0.0);
  EXPECT_GT(sum.stats(kCctRoot, Event::kIdle).sum(), 0.0);
}

/// Test-only oracle: summarize() as a separate pass — correlate every rank,
/// fold the parts serially with CanonicalCct::merge in rank order, feed each
/// part's inclusive costs to OnlineStats::add in part order, then pad with
/// zero observations.
SummaryCct summarize_oracle(const std::vector<sim::RawProfile>& ranks,
                            const structure::StructureTree& tree) {
  const std::vector<CanonicalCct> parts = Pipeline().correlate(ranks, tree);
  SummaryCct out{CanonicalCct(&tree), {},
                 static_cast<std::uint32_t>(ranks.size())};
  for (const CanonicalCct& part : parts) {
    const std::vector<CctNodeId> map = out.cct.merge(part);
    out.inclusive_stats.resize(out.cct.size());
    const std::vector<model::EventVector> incl = part.inclusive_samples();
    for (CctNodeId src = 0; src < part.size(); ++src) {
      auto& slot = out.inclusive_stats[map[src]];
      for (std::size_t e = 0; e < model::kNumEvents; ++e)
        slot[e].add(incl[src].v[e]);
    }
  }
  for (auto& slot : out.inclusive_stats) {
    for (auto& st : slot) {
      if (st.count() < out.nranks) {
        OnlineStats pad = OnlineStats::zeros(out.nranks - st.count());
        pad.merge(st);
        st = pad;
      }
    }
  }
  return out;
}

/// summarize() must match the oracle bit for bit at every thread count.
void expect_matches_oracle(const std::vector<sim::RawProfile>& raws,
                           const structure::StructureTree& tree) {
  const SummaryCct want = summarize_oracle(raws, tree);
  for (const std::uint32_t nthreads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "nthreads " << nthreads);
    const SummaryCct got = summarize(raws, tree, nthreads);
    EXPECT_EQ(got.nranks, want.nranks);
    testutil::expect_identical(got.cct, want.cct);
    ASSERT_EQ(got.inclusive_stats.size(), want.inclusive_stats.size());
    for (CctNodeId n = 0; n < want.cct.size(); ++n) {
      for (std::size_t e = 0; e < model::kNumEvents; ++e) {
        const OnlineStats& a = got.inclusive_stats[n][e];
        const OnlineStats& b = want.inclusive_stats[n][e];
        EXPECT_EQ(a.count(), b.count()) << "node " << n << " event " << e;
        EXPECT_EQ(a.sum(), b.sum()) << "node " << n << " event " << e;
        EXPECT_EQ(a.mean(), b.mean()) << "node " << n << " event " << e;
        EXPECT_EQ(a.variance(), b.variance()) << "node " << n << " event " << e;
        EXPECT_EQ(a.min(), b.min()) << "node " << n << " event " << e;
        EXPECT_EQ(a.max(), b.max()) << "node " << n << " event " << e;
      }
    }
  }
}

std::vector<sim::RawProfile> run_ranks(const workloads::Workload& w,
                                       std::uint32_t nranks) {
  sim::ParallelConfig pc;
  pc.nranks = nranks;
  pc.base = w.run;
  return sim::run_parallel(*w.program, *w.lowering, pc);
}

TEST(Summarize, MatchesOracleOnDivergentRanks) {
  workloads::Workload w = workloads::make_random_program({.seed = 10});
  const auto raws = run_ranks(w, 8);
  // Some scopes must be absent from some ranks, so the padding path runs.
  const std::vector<CanonicalCct> parts = Pipeline().correlate(raws, *w.tree);
  std::size_t part_nodes = 0;
  for (const CanonicalCct& p : parts) part_nodes += p.size();
  ASSERT_LT(part_nodes, parts.size() * merge_serial(parts).size());
  expect_matches_oracle(raws, *w.tree);
}

TEST(Summarize, MatchesOracleOnSpmdRanks) {
  workloads::SubsurfaceWorkload w = workloads::make_subsurface(8);
  expect_matches_oracle(run_ranks(w, w.nranks), *w.tree);
}

TEST(Summarize, MatchesOracleOnOneRank) {
  workloads::Workload w = workloads::make_random_program({.seed = 11});
  expect_matches_oracle(run_ranks(w, 1), *w.tree);
}

TEST(Summarize, RejectsEmpty) {
  workloads::PaperExample ex;
  const std::vector<sim::RawProfile> empty;
  EXPECT_THROW(summarize(empty, ex.tree()), InvalidArgument);
}

}  // namespace
}  // namespace pathview::prof
