// Golden tests for pathview::query: the text grammar (including byte-offset
// diagnostics), call-path pattern matching (recursion, '**'), predicate
// compilation (total folding, the columnar fast path), and deterministic
// ordering of results. A differential oracle (a pruning DFS matcher and a
// stable sort on the key alone) checks whole results on random programs and
// a 64-rank divergent union.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "pathview/metrics/attribution.hpp"
#include "pathview/prof/correlate.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/query/pattern.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/query/query.hpp"
#include "pathview/sim/parallel_runner.hpp"
#include "pathview/support/error.hpp"
#include "pathview/workloads/paper_example.hpp"
#include "pathview/workloads/random_program.hpp"

namespace pathview::query {
namespace {

using model::Event;

// --- grammar ----------------------------------------------------------------

/// Canonical text after a parse round trip.
std::string canon(const std::string& text) { return to_text(parse(text)); }

/// Byte offset carried by the ParseError `text` provokes (asserts it throws).
std::size_t parse_offset(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const ParseError& e) {
    return e.offset();
  }
  ADD_FAILURE() << "expected ParseError for: " << text;
  return static_cast<std::size_t>(-1);
}

TEST(QueryGrammar, ParsesTheHeadlineQuery) {
  const Query q = parse(
      "match 'main/**/mpi_*' where cycles.incl > 0.05*total "
      "order by cycles.excl desc limit 20");
  EXPECT_EQ(q.pattern, "main/**/mpi_*");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->op, ExprOp::kGt);
  EXPECT_EQ(q.order_by, "cycles (E)");  // EVENT.excl resolves at parse time
  EXPECT_TRUE(q.order_desc);
  EXPECT_EQ(q.limit, 20u);
}

TEST(QueryGrammar, ClausesComposeInAnyOrder) {
  const std::string a = canon("limit 5 match 'a/b' where x > 1");
  const std::string b = canon("where x > 1 limit 5 match 'a/b'");
  EXPECT_EQ(a, b);
}

TEST(QueryGrammar, CanonicalTextIsAFixedPoint) {
  for (const char* text : {
           "match 'm/**' where cycles.incl > 0.05*total limit 3",
           "where not (a > 1 and b < 2) or c == 3",
           "select count(*), sum(cycles.excl) order by \"IMBALANCE %\" asc",
           "where a - (b - c) > 0",
           "where -x + 2 * 3 > 1 / 4",
       }) {
    SCOPED_TRACE(text);
    const std::string once = canon(text);
    EXPECT_EQ(canon(once), once);  // re-parses to the same canonical form
  }
}

TEST(QueryGrammar, PrecedenceShapesTheTree) {
  // 1 + 2 * 3 > 6 and not x > 5  parses as  ((1 + (2*3)) > 6) and (not (x > 5))
  const auto e = parse_predicate("1 + 2 * 3 > 6 and not x > 5");
  ASSERT_EQ(e->op, ExprOp::kAnd);
  ASSERT_EQ(e->lhs->op, ExprOp::kGt);
  EXPECT_EQ(e->lhs->lhs->op, ExprOp::kAdd);
  EXPECT_EQ(e->lhs->lhs->rhs->op, ExprOp::kMul);
  ASSERT_EQ(e->rhs->op, ExprOp::kNot);
  EXPECT_EQ(e->rhs->lhs->op, ExprOp::kGt);
}

TEST(QueryGrammar, NumbersRoundTripShortest) {
  // 0.05 must not print as 0.050000000000000003.
  EXPECT_EQ(to_text(*parse_predicate("x > 0.05 * total")),
            "x > 0.05 * total");
  EXPECT_EQ(to_text(*parse_predicate("x > 1e9")), "x > 1000000000");
}

TEST(QueryGrammar, ErrorsCarryByteOffsets) {
  EXPECT_EQ(parse_offset("limit 1 limit 2"), 8u);   // duplicate clause
  EXPECT_EQ(parse_offset("match match"), 6u);       // pattern must be quoted
  EXPECT_EQ(parse_offset("where cycles.foo > 1"), 13u);  // bad .suffix
  EXPECT_EQ(parse_offset("limit x"), 6u);           // not an integer
  EXPECT_EQ(parse_offset("limit 0"), 6u);           // zero is not positive
  EXPECT_EQ(parse_offset("frobnicate"), 0u);        // unknown clause
  EXPECT_EQ(parse_offset("where (1 > 0"), 12u);     // unclosed paren (at end)
  EXPECT_EQ(parse_offset("where 'oops"), 6u);       // unterminated string
  EXPECT_EQ(parse_offset("where a @ b"), 8u);       // stray character
}

TEST(QueryGrammar, BuilderProducesTheSameAstAsText) {
  Query built = QueryBuilder()
                    .match("main/**/mpi_*")
                    .where("cycles.incl > 0.05*total")
                    .order_by("cycles.excl", /*descending=*/true)
                    .limit(20)
                    .build();
  const Query parsed = parse(
      "match 'main/**/mpi_*' where cycles.incl > 0.05*total "
      "order by cycles.excl desc limit 20");
  EXPECT_EQ(to_text(built), to_text(parsed));
}

TEST(QueryGrammar, BuilderWhereCallsAndTogether) {
  Query q = QueryBuilder().where("a > 1").where("b < 2").build();
  EXPECT_EQ(to_text(q), to_text(parse("where a > 1 and b < 2")));
}

TEST(QueryGrammar, BuilderAggregatesMatchTextForms) {
  Query q = QueryBuilder()
                .aggregate(SelectItem::Agg::kCount)
                .aggregate(SelectItem::Agg::kSum, "cycles.incl")
                .build();
  EXPECT_EQ(to_text(q), to_text(parse("select count(*), sum(cycles.incl)")));
  EXPECT_THROW(QueryBuilder().aggregate(SelectItem::Agg::kNone),
               InvalidArgument);
  EXPECT_THROW(QueryBuilder().aggregate(SelectItem::Agg::kSum),
               InvalidArgument);
}

TEST(QueryGrammar, ResolveMetricName) {
  EXPECT_EQ(resolve_metric_name("cycles.incl"), "cycles (I)");
  EXPECT_EQ(resolve_metric_name("cycles.excl"), "cycles (E)");
  EXPECT_EQ(resolve_metric_name("IMBALANCE %"), "IMBALANCE %");
}

// --- path patterns ----------------------------------------------------------

TEST(PathPatternTest, GlobMatch) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("mpi_*", "mpi_waitall"));
  EXPECT_FALSE(glob_match("mpi_*", "ompi_free"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("a*b*c", "aXXbYYc"));  // star backtracking
  EXPECT_TRUE(glob_match("a*b", "ab"));
  EXPECT_FALSE(glob_match("a*b", "ba"));
}

TEST(PathPatternTest, ParseRejectsEmptySegmentsWithOffset) {
  try {
    parse_pattern("a//b", /*offset=*/10);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.offset(), 12u);  // the empty segment starts after "a/"
  }
  EXPECT_THROW(parse_pattern("/a"), ParseError);
  EXPECT_THROW(parse_pattern("a/"), ParseError);
}

TEST(PathPatternTest, ParseRejectsOversizedPatterns) {
  std::string big = "x";
  for (int i = 0; i < 63; ++i) big += "/x";  // 64 segments
  EXPECT_THROW(parse_pattern(big), ParseError);
  big = big.substr(2);  // 63 segments: the largest pattern that fits
  EXPECT_EQ(parse_pattern(big).segments.size(), 63u);
}

/// Run `chain` through a matcher; true when the whole chain matches.
bool chain_matches(const std::string& pattern,
                   const std::vector<std::string>& chain) {
  const PatternMatcher m(parse_pattern(pattern));
  PatternMatcher::StateSet s = m.initial();
  for (const std::string& name : chain) s = m.advance(s, name);
  return m.accepting(s);
}

TEST(PathPatternTest, MatcherExactChain) {
  EXPECT_TRUE(chain_matches("m/f/g", {"m", "f", "g"}));
  EXPECT_FALSE(chain_matches("m/f/g", {"m", "f"}));       // too short
  EXPECT_FALSE(chain_matches("m/f/g", {"m", "f", "h"}));  // wrong leaf
  EXPECT_FALSE(chain_matches("m/f/g", {"m", "f", "g", "h"}));  // too long
}

TEST(PathPatternTest, AnyDepthMatchesZeroOrMoreFrames) {
  EXPECT_TRUE(chain_matches("m/**/h", {"m", "h"}));  // ** absorbs nothing
  EXPECT_TRUE(chain_matches("m/**/h", {"m", "f", "g", "h"}));
  EXPECT_TRUE(chain_matches("**", {}));  // matches even the empty chain
  EXPECT_TRUE(chain_matches("**", {"a", "b"}));
  EXPECT_TRUE(chain_matches("**/h", {"h"}));
  EXPECT_FALSE(chain_matches("m/**/h", {"f", "g", "h"}));
}

TEST(PathPatternTest, RecursionNeedsDistinctFrames) {
  // 'a/**/a' wants two distinct frames named a on the chain.
  EXPECT_FALSE(chain_matches("a/**/a", {"a"}));
  EXPECT_TRUE(chain_matches("a/**/a", {"a", "a"}));
  EXPECT_TRUE(chain_matches("a/**/a", {"a", "b", "c", "a"}));
}

TEST(PathPatternTest, PruningSignal) {
  const PatternMatcher m(parse_pattern("m/f"));
  PatternMatcher::StateSet s = m.initial();
  EXPECT_TRUE(m.can_continue(s));
  s = m.advance(s, "zzz");  // first frame mismatches an anchored pattern
  EXPECT_FALSE(m.can_continue(s));
}

// --- compile + execute over a real CCT --------------------------------------

/// The paper's Fig. 2 example: frames m(10) -> f(7) -> g(6) -> g(5) -> h(4)
/// (inclusive cycles), plus loops/statements below and a second g under m.
struct PlanFixture {
  PlanFixture()
      : cct(prof::correlate(ex.profile(), ex.tree())),
        attr(metrics::attribute_metrics(cct, metrics::all_events())),
        incl(attr.cols.inclusive(Event::kCycles)),
        excl(attr.cols.exclusive(Event::kCycles)) {}

  QueryResult run(const std::string& text) const {
    return query::run(text, cct, attr.table);
  }
  Plan plan(const std::string& text) const {
    return compile(parse(text), cct, attr.table);
  }

  workloads::PaperExample ex;
  prof::CanonicalCct cct;
  metrics::Attribution attr;
  metrics::ColumnId incl, excl;
};

TEST(QueryPlan, TotalFoldsToTheRootRowValue) {
  PlanFixture f;
  // Root inclusive cycles is 10, so the bound is 5.
  const QueryResult r = f.run("where cycles.incl > 0.5*total");
  std::size_t expect = 0;
  for (const double v : f.attr.table.column(f.incl))
    if (v > 5.0) ++expect;
  ASSERT_GT(expect, 0u);
  EXPECT_EQ(r.rows.size(), expect);
  EXPECT_EQ(r.stats.rows_matched, expect);
  // Default select surfaces the predicate's metric, resolved.
  ASSERT_EQ(r.columns.size(), 1u);
  EXPECT_EQ(r.columns[0], f.attr.table.desc(f.incl).name);
  for (const ResultRow& row : r.rows) EXPECT_GT(row.values[0], 5.0);
}

TEST(QueryPlan, ExplainShowsTheFoldedBound) {
  PlanFixture f;
  const std::string text = f.plan("where cycles.incl > 0.5*total").explain();
  EXPECT_NE(text.find("bound 5"), std::string::npos) << text;
  // The echoed query keeps the pre-fold form the user wrote.
  EXPECT_NE(text.find("0.5 * total"), std::string::npos) << text;
}

TEST(QueryPlan, FastPathAndRowProgramAgree) {
  PlanFixture f;
  const Plan fast = f.plan("where cycles.incl > 3");
  const Plan slow = f.plan("where 0 + cycles.incl > 3");  // defeats the scan
  EXPECT_NE(fast.explain().find("columnar scan"), std::string::npos);
  EXPECT_NE(slow.explain().find("row program"), std::string::npos);
  const QueryResult a = fast.execute();
  const QueryResult b = slow.execute();
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    EXPECT_EQ(a.rows[i].node, b.rows[i].node);
  // The row program evaluated every row; the scan visited them columnar-ly.
  EXPECT_EQ(b.stats.rows_scanned, f.attr.table.num_rows());
  EXPECT_EQ(a.stats.rows_scanned, f.attr.table.num_rows());
}

TEST(QueryPlan, FlippedComparisonStillTakesTheFastPath) {
  PlanFixture f;
  const Plan flipped = f.plan("where 3 < cycles.incl");
  EXPECT_NE(flipped.explain().find("columnar scan"), std::string::npos);
  const QueryResult a = f.run("where cycles.incl > 3");
  const QueryResult b = flipped.execute();
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    EXPECT_EQ(a.rows[i].node, b.rows[i].node);
}

TEST(QueryPlan, UnknownColumnsFailWithAByteOffset) {
  PlanFixture f;
  try {
    f.run("where bogus_metric > 1");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus_metric"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
  EXPECT_THROW(f.run("order by nope desc"), InvalidArgument);
  EXPECT_THROW(f.run("select nope"), InvalidArgument);
}

TEST(QueryPlan, TotalNeedsAnAnchorMetric) {
  PlanFixture f;
  EXPECT_THROW(f.run("where 1 > 0.5*total"), InvalidArgument);
  // A metric elsewhere in the SAME comparison anchors it.
  EXPECT_NO_THROW(f.run("where total * 0.5 < cycles.incl"));
}

TEST(QueryPlan, MixingAggregatesAndColumnsIsRejected) {
  PlanFixture f;
  EXPECT_THROW(f.run("select count(*), cycles.incl"), InvalidArgument);
}

TEST(QueryPlan, MatchWalksFrameChains) {
  PlanFixture f;
  const QueryResult r = f.run("match 'm/f/g/g/h'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].label, "h");
  EXPECT_EQ(r.rows[0].path, "m/f/g/g/h");
  EXPECT_GT(r.stats.nodes_visited, 0u);
}

TEST(QueryPlan, AnyDepthFindsEveryRecursiveInstance) {
  PlanFixture f;
  // Frames named g whose chain holds ANOTHER g above them: exactly the
  // inner g (m/f/g/g), inclusive 5.
  const QueryResult r = f.run("match '**/g/**/g'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].path, "m/f/g/g");
  EXPECT_EQ(f.attr.table.get(f.incl, r.rows[0].node), 5.0);
}

TEST(QueryPlan, MatchAndWhereIntersect) {
  PlanFixture f;
  // All g frames...
  const QueryResult all_g = f.run("match '**/g'");
  // ...versus only those above half the total.
  const QueryResult big_g = f.run("match '**/g' where cycles.incl > 0.5*total");
  EXPECT_GT(all_g.rows.size(), big_g.rows.size());
  for (const ResultRow& row : big_g.rows) {
    EXPECT_EQ(row.label, "g");
    EXPECT_GT(f.attr.table.get(f.incl, row.node), 5.0);
  }
}

TEST(QueryPlan, OrderingIsDeterministicOnTies) {
  PlanFixture f;
  const QueryResult r = f.run("order by cycles.incl desc");
  ASSERT_GT(r.rows.size(), 2u);
  for (std::size_t i = 1; i < r.rows.size(); ++i) {
    const double prev = f.attr.table.get(f.incl, r.rows[i - 1].node);
    const double cur = f.attr.table.get(f.incl, r.rows[i].node);
    EXPECT_GE(prev, cur);  // descending keys...
    if (prev == cur)       // ...and ties break toward smaller node ids
      EXPECT_LT(r.rows[i - 1].node, r.rows[i].node);
  }
  // Same query, same data: byte-identical rows.
  const QueryResult again = f.run("order by cycles.incl desc");
  ASSERT_EQ(again.rows.size(), r.rows.size());
  for (std::size_t i = 0; i < r.rows.size(); ++i)
    EXPECT_EQ(again.rows[i].node, r.rows[i].node);
}

TEST(QueryPlan, LimitKeepsTheTop) {
  PlanFixture f;
  const QueryResult r = f.run("order by cycles.incl desc limit 3");
  ASSERT_EQ(r.rows.size(), 3u);
  // Root and m tie at 10; the root (node 0) wins the tie.
  EXPECT_EQ(r.rows[0].node, prof::kCctRoot);
  EXPECT_EQ(r.rows[0].values[0], 10.0);
  EXPECT_EQ(r.rows[1].label, "m");
  EXPECT_EQ(r.rows[1].values[0], 10.0);
  EXPECT_EQ(r.rows[2].values[0], 7.0);  // f
}

TEST(QueryPlan, AggregatesMatchManualLoops) {
  PlanFixture f;
  const QueryResult r =
      f.run("select count(*), sum(cycles.excl), mean(cycles.incl), "
            "min(cycles.incl), max(cycles.incl)");
  ASSERT_EQ(r.rows.size(), 1u);
  const std::size_t n = f.attr.table.num_rows();
  EXPECT_EQ(r.rows[0].values[0], static_cast<double>(n));
  EXPECT_DOUBLE_EQ(r.rows[0].values[1], f.attr.table.column_sum(f.excl));
  EXPECT_DOUBLE_EQ(r.rows[0].values[2],
                   f.attr.table.column_sum(f.incl) / static_cast<double>(n));
  const auto col = f.attr.table.column(f.incl);
  EXPECT_EQ(r.rows[0].values[3], *std::min_element(col.begin(), col.end()));
  EXPECT_EQ(r.rows[0].values[4], *std::max_element(col.begin(), col.end()));
  EXPECT_EQ(r.columns[0], "count(*)");
}

TEST(QueryPlan, AggregatesOverAnEmptyMatchAreZero) {
  PlanFixture f;
  const QueryResult r =
      f.run("where cycles.incl > 1e15 select count(*), sum(cycles.incl), "
            "min(cycles.incl)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].values[0], 0.0);
  EXPECT_EQ(r.rows[0].values[1], 0.0);
  EXPECT_EQ(r.rows[0].values[2], 0.0);  // not +inf
  EXPECT_EQ(r.stats.rows_matched, 0u);
}

TEST(QueryPlan, ExplainListsEveryOperatorInOrder) {
  PlanFixture f;
  const std::string text =
      f.plan("match 'm/**' where cycles.incl > 2 "
             "order by cycles.incl desc limit 4")
          .explain();
  const char* expected[] = {"plan for:", "source:",   "match:",
                            "filter:",   "project:",  "order by:",
                            "limit: 4"};
  std::size_t at = 0;
  for (const char* part : expected) {
    const std::size_t found = text.find(part, at);
    ASSERT_NE(found, std::string::npos) << part << " missing in:\n" << text;
    at = found;
  }
}

TEST(QueryPlan, BuilderAndTextCompileToTheSameResult) {
  PlanFixture f;
  Query built = QueryBuilder()
                    .match("**/g")
                    .where("cycles.incl > 0.3*total")
                    .order_by("cycles.incl")
                    .build();
  const QueryResult a = compile(std::move(built), f.cct, f.attr.table).execute();
  const QueryResult b =
      f.run("match '**/g' where cycles.incl > 0.3*total "
            "order by cycles.incl desc");
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    EXPECT_EQ(a.rows[i].node, b.rows[i].node);
}

TEST(QueryPlan, NaNOrderKeysSortLastInNodeOrder) {
  PlanFixture f;
  metrics::MetricTable table = f.attr.table;
  metrics::MetricDesc desc;
  desc.name = "spiky";
  const metrics::ColumnId c = table.add_column(desc);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t r = 0; r < table.num_rows(); ++r)
    table.set(c, r, r % 3 == 1 ? nan : static_cast<double>(r % 4));
  for (const char* dir : {"desc", "asc"}) {
    SCOPED_TRACE(dir);
    const QueryResult res =
        query::run(std::string("order by spiky ") + dir, f.cct, table);
    ASSERT_EQ(res.rows.size(), table.num_rows());
    std::size_t first_nan = res.rows.size();
    for (std::size_t i = 0; i < res.rows.size(); ++i) {
      if (std::isnan(res.rows[i].values[0]))
        first_nan = std::min(first_nan, i);
      else
        EXPECT_EQ(first_nan, res.rows.size()) << "number after a NaN at " << i;
    }
    for (std::size_t i = 1; i < res.rows.size(); ++i) {
      const double a = res.rows[i - 1].values[0], b = res.rows[i].values[0];
      if (std::isnan(a) || std::isnan(b)) {
        if (std::isnan(a) && std::isnan(b)) {
          EXPECT_LT(res.rows[i - 1].node, res.rows[i].node);
        }
        continue;
      }
      EXPECT_TRUE(dir[0] == 'd' ? a >= b : a <= b);
      if (a == b) {
        EXPECT_LT(res.rows[i - 1].node, res.rows[i].node);
      }
    }
    const QueryResult top =
        query::run(std::string("order by spiky ") + dir + " limit 4", f.cct,
                   table);
    ASSERT_EQ(top.rows.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(top.rows[i].node, res.rows[i].node);
  }
}

// --- differential oracle ----------------------------------------------------

/// The matcher Plan::execute used before its single ascending-id pass, kept
/// as an oracle: a DFS carrying NFA state sets, pruning a subtree the moment
/// its state set goes empty, then sorting the candidates by node id.
std::vector<prof::CctNodeId> dfs_candidates(const PathPattern& pattern,
                                            const prof::CanonicalCct& cct,
                                            std::uint64_t& nodes_visited) {
  const PatternMatcher m(pattern);
  std::vector<prof::CctNodeId> out;
  std::vector<std::pair<prof::CctNodeId, PatternMatcher::StateSet>> stack;
  stack.emplace_back(prof::kCctRoot, m.initial());
  while (!stack.empty()) {
    const auto [id, state] = stack.back();
    stack.pop_back();
    ++nodes_visited;
    PatternMatcher::StateSet s = state;
    const prof::CctNode& n = cct.node(id);
    if (n.kind == prof::CctKind::kFrame || n.kind == prof::CctKind::kInline) {
      s = m.advance(s, cct.tree().name_of(n.scope));
      if (m.accepting(s)) out.push_back(id);
      if (!m.can_continue(s)) continue;
    }
    for (const prof::CctNodeId child : n.children) stack.emplace_back(child, s);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Plan::execute as it was before the single-pass matcher and the (key, id)
/// sort: dfs_candidates, then a stable sort on the order-by key alone, then
/// the limit. Filtering and projection are not under test, so they come from
/// a plan with no pattern, order or limit over every row (node order), which
/// projects the query's columns plus the order-by key. Those base results
/// do not depend on the pattern, so `bases` caches them by query text.
QueryResult oracle_run(const std::string& text, const prof::CanonicalCct& cct,
                       const metrics::MetricTable& table,
                       std::map<std::string, QueryResult>& bases) {
  using Agg = SelectItem::Agg;
  const Query q = parse(text);
  const bool aggregate = !q.select.empty() && q.select[0].agg != Agg::kNone;
  // The column headers (compile's defaulted select list) of the real plan;
  // limit 1 keeps this probe cheap without changing them.
  Query probe = parse(text);
  probe.limit = 1;
  const std::vector<std::string> columns =
      compile(std::move(probe), cct, table).execute().columns;

  Query base = parse(text);
  base.pattern.clear();
  base.order_by.clear();
  base.limit = 0;
  base.select.clear();
  for (const std::string& name : columns)
    base.select.push_back({Agg::kNone, name, name});
  if (aggregate) {
    base.select.clear();
    for (const SelectItem& s : q.select)
      if (s.agg != Agg::kCount)
        base.select.push_back({Agg::kNone, s.metric, s.metric});
  } else if (!q.select.empty()) {
    base.select = q.select;
  }
  const bool ordered = !aggregate && !q.order_by.empty();
  if (ordered) base.select.push_back({Agg::kNone, q.order_by, q.order_by});
  const std::string base_text = to_text(base);
  auto [it, fresh] = bases.try_emplace(base_text);
  if (fresh) it->second = compile(std::move(base), cct, table).execute();
  const QueryResult& all = it->second;

  QueryResult res;
  res.columns = columns;
  std::vector<const ResultRow*> matched;
  if (q.pattern.empty()) {
    res.stats.rows_scanned = all.stats.rows_scanned;
    for (const ResultRow& r : all.rows) matched.push_back(&r);
  } else {
    std::size_t at = 0;  // all.rows is node-id ascending, as are candidates
    const std::vector<prof::CctNodeId> cands = dfs_candidates(
        parse_pattern(q.pattern), cct, res.stats.nodes_visited);
    for (const prof::CctNodeId id : cands) {
      if (id >= table.num_rows()) continue;
      if (q.where) ++res.stats.rows_scanned;
      while (at < all.rows.size() && all.rows[at].node < id) ++at;
      if (at < all.rows.size() && all.rows[at].node == id)
        matched.push_back(&all.rows[at]);
    }
  }
  res.stats.rows_matched = matched.size();

  if (aggregate) {
    ResultRow row;
    std::size_t k = 0;  // next column of the base projection
    for (const SelectItem& s : q.select) {
      if (s.agg == Agg::kCount) {
        row.values.push_back(static_cast<double>(matched.size()));
        continue;
      }
      const std::size_t c = k++;
      double acc = 0.0;
      if (!matched.empty()) {
        if (s.agg == Agg::kMin) {
          acc = std::numeric_limits<double>::infinity();
          for (const ResultRow* r : matched) acc = std::min(acc, r->values[c]);
        } else if (s.agg == Agg::kMax) {
          acc = -std::numeric_limits<double>::infinity();
          for (const ResultRow* r : matched) acc = std::max(acc, r->values[c]);
        } else {
          for (const ResultRow* r : matched) acc += r->values[c];
          if (s.agg == Agg::kMean) acc /= static_cast<double>(matched.size());
        }
      }
      row.values.push_back(acc);
    }
    res.rows.push_back(std::move(row));
    return res;
  }

  if (ordered && matched.size() > 1) {
    std::vector<double> keys;
    for (const ResultRow* r : matched) keys.push_back(r->values.back());
    std::vector<std::size_t> idx(matched.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    if (q.order_desc)
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::size_t a, std::size_t b) {
                         return keys[a] > keys[b];
                       });
    else
      std::stable_sort(idx.begin(), idx.end(),
                       [&](std::size_t a, std::size_t b) {
                         return keys[a] < keys[b];
                       });
    std::vector<const ResultRow*> reordered;
    for (const std::size_t i : idx) reordered.push_back(matched[i]);
    matched = std::move(reordered);
  }
  if (q.limit > 0 && matched.size() > q.limit) matched.resize(q.limit);
  for (const ResultRow* r : matched) {
    ResultRow row = *r;
    if (ordered) row.values.pop_back();
    res.rows.push_back(std::move(row));
  }
  return res;
}

void expect_same_result(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.columns, want.columns);
  EXPECT_EQ(got.stats.nodes_visited, want.stats.nodes_visited);
  EXPECT_EQ(got.stats.rows_scanned, want.stats.rows_scanned);
  EXPECT_EQ(got.stats.rows_matched, want.stats.rows_matched);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].node, want.rows[i].node) << "row " << i;
    EXPECT_EQ(got.rows[i].path, want.rows[i].path) << "row " << i;
    EXPECT_EQ(got.rows[i].label, want.rows[i].label) << "row " << i;
    EXPECT_EQ(got.rows[i].values, want.rows[i].values) << "row " << i;
  }
}

/// Every pattern x clause combination, engine vs oracle. Random programs
/// name their procedures p0 (the entry) .. pN.
void expect_engine_matches_oracle(const prof::CanonicalCct& cct,
                                  const metrics::MetricTable& table) {
  const char* const patterns[] = {
      "",                // every node
      "**",              //
      "**/p1*",          // the browse workload's glob
      "p0/*",            // anchored, one level
      "**/p2/**/p2",     // recursion: two distinct frames
      "p0/**/p1?",       //
      "**/p?",           // '?' glob
      "p0/p1/p2",        // anchored chain: prunes early
      "zz*/**",          // matches nothing, prunes at the first frame
  };
  const char* const clauses[] = {
      "",
      "where cycles.incl > 0.01*total",
      "order by cycles.excl desc",  // heavy ties: most nodes are 0
      "order by cycles.excl asc limit 1",
      "order by flops.excl desc limit 20",
      "where cycles.incl > 0 order by flops.incl asc limit 20",
      "order by idle.excl desc limit 100000",  // all ties, limit > matches
      "where cycles.excl >= 0 order by l2.excl asc",  // limit 0: unlimited
      "select cycles.incl, flops.excl order by cycles.excl desc limit 7",
      "where cycles.excl > 0 order by cycles.incl desc limit 20",
      "select count(*), sum(cycles.excl) where cycles.excl > 0",
      "select count(*), mean(cycles.incl), min(flops.incl), max(cycles.incl)",
  };
  std::map<std::string, QueryResult> bases;
  for (const char* pattern : patterns) {
    for (const char* clause : clauses) {
      std::string text =
          *pattern ? "match '" + std::string(pattern) + "' " : "";
      text += clause;
      SCOPED_TRACE(text);
      expect_same_result(query::run(text, cct, table),
                         oracle_run(text, cct, table, bases));
    }
  }
}

TEST(QueryOracle, MatchesTheDfsMatcherAndStableSortOnRandomPrograms) {
  for (const std::uint64_t seed : {3ull, 10ull, 21ull, 77ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // Recursion stays on (the generator's default), so '**/p2/**/p2' finds
    // nested instances.
    const workloads::Workload w =
        workloads::make_random_program({.seed = seed});
    sim::ParallelConfig pc;
    pc.nranks = 4;
    pc.base = w.run;
    const prof::CanonicalCct cct = prof::Pipeline().run(
        sim::run_parallel(*w.program, *w.lowering, pc), *w.tree);
    const metrics::Attribution attr =
        metrics::attribute_metrics(cct, metrics::all_events());
    expect_engine_matches_oracle(cct, attr.table);
  }
}

TEST(QueryOracle, MatchesTheDfsMatcherAndStableSortOnA64RankDivergentUnion) {
  // pvbench's divergent shape: every rank explores its own slice of the
  // context space, so the union (~111k nodes) dwarfs any one rank's tree.
  workloads::RandomProgramOptions o;
  o.seed = 7;
  o.num_files = 8;
  o.num_procs = 40;
  o.max_stmt_depth = 4;
  o.max_body_stmts = 4;
  const workloads::Workload w = workloads::make_random_program(o);
  sim::ParallelConfig pc;
  pc.nranks = 64;
  pc.base = w.run;
  const prof::CanonicalCct cct = prof::Pipeline().run(
      sim::run_parallel(*w.program, *w.lowering, pc), *w.tree);
  ASSERT_GT(cct.size(), 100000u);
  const metrics::Attribution attr =
      metrics::attribute_metrics(cct, metrics::all_events());
  expect_engine_matches_oracle(cct, attr.table);
}

}  // namespace
}  // namespace pathview::query
