// Tests for view mechanics beyond the Fig. 2 golden values: lazy
// construction of the Callers View, sorting, flattening.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pathview/support/error.hpp"

#include "pathview/core/callers_view.hpp"
#include "pathview/core/cct_view.hpp"
#include "pathview/core/exposure.hpp"
#include "pathview/core/flat_view.hpp"
#include "pathview/core/flatten.hpp"
#include "pathview/core/sort.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/support/prng.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"
#include "test_util.hpp"

namespace pathview::core {
namespace {

using model::Event;
using testutil::child_labeled;
using testutil::incl_cyc;

struct Fixture {
  Fixture()
      : cct(prof::correlate(ex.profile(), ex.tree())),
        attr(metrics::attribute_metrics(cct,
                                        std::array{model::Event::kCycles})) {}
  workloads::PaperExample ex;
  prof::CanonicalCct cct;
  metrics::Attribution attr;
};

TEST(CallersViewLazy, OnlyTopLevelBuiltInitially) {
  Fixture f;
  CallersView lazy(f.cct, f.attr, {RecursionPolicy::kExposedOnly, true});
  // Root + one entry per procedure (f, m, g, h) = 5 nodes, no caller levels.
  EXPECT_EQ(lazy.size(), 5u);
  EXPECT_EQ(lazy.levels_built(), 0u);

  CallersView eager(f.cct, f.attr, {RecursionPolicy::kExposedOnly, false});
  EXPECT_GT(eager.size(), lazy.size());
  EXPECT_GT(eager.levels_built(), 0u);
}

TEST(CallersViewLazy, ExpansionMaterializesOneLevel) {
  Fixture f;
  CallersView v(f.cct, f.attr, {RecursionPolicy::kExposedOnly, true});
  const ViewNodeId ga = child_labeled(v, v.root(), "g", NodeRole::kProc);
  const std::size_t before = v.size();
  const auto& children = v.children_of(ga);
  EXPECT_EQ(children.size(), 3u);  // f, g, m callers
  EXPECT_EQ(v.size(), before + 3);
  EXPECT_EQ(v.levels_built(), 1u);
  // Repeated access does not rebuild.
  (void)v.children_of(ga);
  EXPECT_EQ(v.levels_built(), 1u);
}

TEST(CallersViewLazy, LazyAndEagerAgreeOnValues) {
  Fixture f;
  CallersView lazy(f.cct, f.attr, {RecursionPolicy::kExposedOnly, true});
  CallersView eager(f.cct, f.attr, {RecursionPolicy::kExposedOnly, false});
  // Fully expand the lazy one, then compare every (label-path, value).
  std::function<void(View&, ViewNodeId, std::string, std::vector<std::pair<std::string, double>>&)>
      collect = [&](View& v, ViewNodeId id, std::string path,
                    std::vector<std::pair<std::string, double>>& out) {
        path += "/" + v.label(id);
        out.emplace_back(path, incl_cyc(v, id, f.attr));
        for (ViewNodeId c : v.children_of(id)) collect(v, c, path, out);
      };
  std::vector<std::pair<std::string, double>> a, b;
  collect(lazy, lazy.root(), "", a);
  collect(eager, eager.root(), "", b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(Sort, ChildrenOrderedByMetric) {
  Fixture f;
  CctView v(f.cct, f.attr);
  const metrics::ColumnId incl = f.attr.cols.inclusive(Event::kCycles);
  const ViewNodeId m = child_labeled(v, v.root(), "m");
  sort_children_by(v, m, incl, /*descending=*/true);
  const auto& ch = v.node(m).children;
  ASSERT_EQ(ch.size(), 2u);
  EXPECT_GE(v.table().get(incl, ch[0]), v.table().get(incl, ch[1]));
  sort_children_by(v, m, incl, /*descending=*/false);
  const auto& ch2 = v.node(m).children;
  EXPECT_LE(v.table().get(incl, ch2[0]), v.table().get(incl, ch2[1]));
}

TEST(Sort, SortIsAPermutation) {
  Fixture f;
  FlatView v(f.cct, f.attr);
  std::vector<ViewNodeId> before;
  for (ViewNodeId id = 0; id < v.size(); ++id)
    for (ViewNodeId c : v.node(id).children) before.push_back(c);
  sort_built_by(v, f.attr.cols.exclusive(Event::kCycles));
  std::vector<ViewNodeId> after;
  for (ViewNodeId id = 0; id < v.size(); ++id)
    for (ViewNodeId c : v.node(id).children) after.push_back(c);
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

TEST(Sort, ByLabel) {
  Fixture f;
  CallersView v(f.cct, f.attr);
  sort_children_by_label(v, v.root());
  const auto& ch = v.node(v.root()).children;
  for (std::size_t i = 1; i < ch.size(); ++i)
    EXPECT_LE(v.label(ch[i - 1]), v.label(ch[i]));
}

/// A CCT view over pvbench's divergent shape at `nranks` ranks, plus an
/// attribution over every event (many all-zero exclusive cells: ties).
struct UnionFixture {
  explicit UnionFixture(std::uint32_t nranks)
      : w(make_workload()),
        cct(prof::Pipeline().run(simulate(w, nranks), *w.tree)),
        attr(metrics::attribute_metrics(cct, metrics::all_events())) {}

  static workloads::Workload make_workload() {
    workloads::RandomProgramOptions o;
    o.seed = 7;
    o.num_files = 8;
    o.num_procs = 40;
    o.max_stmt_depth = 4;
    o.max_body_stmts = 4;
    return workloads::make_random_program(o);
  }
  static std::vector<sim::RawProfile> simulate(const workloads::Workload& w,
                                               std::uint32_t nranks) {
    sim::ParallelConfig pc;
    pc.nranks = nranks;
    pc.base = w.run;
    return sim::run_parallel(*w.program, *w.lowering, pc);
  }

  workloads::Workload w;
  prof::CanonicalCct cct;
  metrics::Attribution attr;
};

/// The comparator sort_children_by documents, for the std::stable_sort oracle.
auto by_column(const View& v, metrics::ColumnId c, bool descending) {
  const std::span<const double> col = v.table().column(c);
  return [col, descending](ViewNodeId a, ViewNodeId b) {
    return descending ? col[a] > col[b] : col[a] < col[b];
  };
}

TEST(Sort, ChildSortMatchesStableSortAcrossTheInsertionThreshold) {
  UnionFixture f(2);
  CctView v(f.cct, f.attr);
  ASSERT_GT(v.size(), 200u);
  // Four distinct values over every row: ties in almost every comparison.
  metrics::MetricDesc desc;
  desc.name = "ties";
  const metrics::ColumnId ties = v.table().add_column(desc);
  std::uint64_t rng = 42;
  for (ViewNodeId id = 0; id < v.size(); ++id)
    v.table().set(ties, id, static_cast<double>(splitmix64(rng) % 4));
  const metrics::ColumnId excl = f.attr.cols.exclusive(Event::kFlops);
  std::vector<ViewNodeId>& ch = v.mutable_children(v.root());
  for (std::size_t n = 0; n <= 80; ++n) {
    for (const metrics::ColumnId c : {ties, excl}) {
      for (const bool descending : {true, false}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " column=" << c
                                        << " descending=" << descending);
        ch.clear();
        for (std::size_t i = 0; i < n; ++i)
          ch.push_back(static_cast<ViewNodeId>(splitmix64(rng) % v.size()));
        std::vector<ViewNodeId> want = ch;
        std::stable_sort(want.begin(), want.end(), by_column(v, c, descending));
        sort_children_by(v, v.root(), c, descending);
        EXPECT_EQ(ch, want);
      }
    }
  }
}

TEST(Sort, ChainedSortsMatchStableSortAtEveryStep) {
  UnionFixture f(16);
  CctView v(f.cct, f.attr);
  // Every CCT child list here is short (insertion sort); widen the root's
  // to 70 distinct nodes so the std::stable_sort path runs in the chain too.
  std::vector<ViewNodeId>& top = v.mutable_children(v.root());
  for (ViewNodeId id = 1; top.size() < 70; id += 97)
    if (std::find(top.begin(), top.end(), id) == top.end()) top.push_back(id);
  // Twenty sorts on different columns and directions, checked against
  // std::stable_sort on a copy of every child list after each step: each
  // step's ties are broken by the order the previous steps left.
  std::vector<std::vector<ViewNodeId>> ref(v.size());
  for (ViewNodeId id = 0; id < v.size(); ++id) ref[id] = v.node(id).children;
  const std::size_t ncols = v.table().num_columns();
  for (std::size_t step = 0; step < 20; ++step) {
    const auto c = static_cast<metrics::ColumnId>((step * 7) % ncols);
    const bool descending = step % 3 != 1;
    SCOPED_TRACE(testing::Message() << "step " << step << ": column " << c
                                    << (descending ? " desc" : " asc"));
    sort_built_by(v, c, descending);
    for (auto& kids : ref)
      std::stable_sort(kids.begin(), kids.end(), by_column(v, c, descending));
    std::size_t differing = 0;
    for (ViewNodeId id = 0; id < v.size(); ++id)
      if (v.node(id).children != ref[id]) ++differing;
    EXPECT_EQ(differing, 0u);
  }
}

TEST(Flatten, ElidesOneLevelAndRestores) {
  Fixture f;
  FlatView v(f.cct, f.attr);
  FlattenState fs(v);
  // Level 0: the module; level 1: files; level 2: procedures.
  ASSERT_EQ(fs.roots().size(), 1u);
  EXPECT_EQ(v.label(fs.roots()[0]), "a.out");
  ASSERT_TRUE(fs.flatten());
  EXPECT_EQ(fs.roots().size(), 2u);  // file1.c, file2.c
  ASSERT_TRUE(fs.flatten());
  EXPECT_EQ(fs.roots().size(), 4u);  // f, m, g, h
  EXPECT_EQ(fs.depth(), 2u);
  EXPECT_TRUE(fs.unflatten());
  EXPECT_EQ(fs.roots().size(), 2u);
  EXPECT_TRUE(fs.unflatten());
  EXPECT_FALSE(fs.unflatten());  // at the initial level
}

TEST(Flatten, LeavesAreKept) {
  Fixture f;
  FlatView v(f.cct, f.attr);
  FlattenState fs(v);
  // Flatten all the way down: leaves must persist, and flatten() must
  // eventually report no change.
  int guard = 0;
  while (fs.flatten() && ++guard < 32) {
  }
  EXPECT_LT(guard, 32);
  for (ViewNodeId id : fs.roots()) EXPECT_TRUE(v.children_of(id).empty());
}

TEST(Exposure, AncestorIndexAndExposedSubset) {
  Fixture f;
  AncestorIndex anc(f.cct);
  // Collect g's frames: g1 is an ancestor of g2; g3 is separate.
  std::vector<prof::CctNodeId> gs;
  f.cct.walk([&](prof::CctNodeId id, int) {
    const prof::CctNode& n = f.cct.node(id);
    if (n.kind == prof::CctKind::kFrame && f.cct.tree().name_of(n.scope) == "g")
      gs.push_back(id);
  });
  ASSERT_EQ(gs.size(), 3u);
  const auto exposed = anc.exposed(gs);
  EXPECT_EQ(exposed.size(), 2u);
  for (prof::CctNodeId e : exposed)
    for (prof::CctNodeId o : exposed)
      if (e != o) EXPECT_FALSE(anc.is_ancestor(e, o));
  EXPECT_TRUE(anc.is_ancestor(f.cct.root(), gs[0]));
}

TEST(ViewBasics, LabelsAndCallSiteFlags) {
  Fixture f;
  CctView v(f.cct, f.attr);
  const ViewNodeId m = child_labeled(v, v.root(), "m");
  EXPECT_FALSE(v.is_call_site(m));  // entry frame has no call site
  const ViewNodeId fr = child_labeled(v, m, "f");
  EXPECT_TRUE(v.is_call_site(fr));
  EXPECT_EQ(view_type_name(v.type()), std::string("Calling Context View"));
}

}  // namespace
}  // namespace pathview::core

namespace pathview::core {
namespace {

TEST(LazyDerived, DerivedColumnsRecomputeOnMaterialization) {
  // Define a derived metric on a lazy Callers View, then expand: the new
  // rows must carry correct derived values (View::ensure_children
  // recomputes derived columns when rows appear).
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  const metrics::Attribution attr =
      metrics::attribute_metrics(cct, std::array{model::Event::kCycles});
  CallersView v(cct, attr, {RecursionPolicy::kExposedOnly, /*lazy=*/true});
  const metrics::ColumnId incl = attr.cols.inclusive(model::Event::kCycles);
  const metrics::ColumnId d = metrics::add_derived_metric(
      v.table(), "x10", "$" + std::to_string(incl) + " * 10");

  const ViewNodeId ga = testutil::child_labeled(v, v.root(), "g",
                                                NodeRole::kProc);
  EXPECT_DOUBLE_EQ(v.table().get(d, ga), 90.0);  // 9 * 10

  // Materialize a new level; its derived cells must be correct, not zero.
  for (ViewNodeId c : v.children_of(ga))
    EXPECT_DOUBLE_EQ(v.table().get(d, c), 10.0 * v.table().get(incl, c));
}

TEST(Flatten, MetricsAreUnaffectedByFlattening) {
  // Flattening is pure presentation: it must not change any node's values.
  workloads::PaperExample ex;
  const prof::CanonicalCct cct = prof::correlate(ex.profile(), ex.tree());
  const metrics::Attribution attr =
      metrics::attribute_metrics(cct, std::array{model::Event::kCycles});
  FlatView v(cct, attr);
  const metrics::ColumnId incl = attr.cols.inclusive(model::Event::kCycles);
  std::vector<double> before;
  for (ViewNodeId id = 0; id < v.size(); ++id)
    before.push_back(v.table().get(incl, id));
  FlattenState fs(v);
  while (fs.flatten()) {
  }
  for (ViewNodeId id = 0; id < before.size(); ++id)
    EXPECT_EQ(v.table().get(incl, id), before[id]);
}

}  // namespace
}  // namespace pathview::core
