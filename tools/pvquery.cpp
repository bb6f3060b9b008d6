// pvquery — run a query from the pathview::query grammar against an
// experiment database and print the matching call paths.
//
//   pvquery app.pvdb "match 'main/**/mpi_*' where cycles.incl > 0.05*total
//                     order by cycles.excl desc limit 20"
//
// The query executes over the experiment's CCT and its metric attribution
// table (the same substrate the pvserve `query` op uses); --json emits the
// byte-identical encoding of that op's "result" field, and --explain prints
// the compiled plan instead of executing it.
#include <cstdio>
#include <string>

#include "pathview/metrics/attribution.hpp"
#include "pathview/metrics/derived.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/serve/query_codec.hpp"
#include "pathview/support/format.hpp"
#include "tool_util.hpp"

using namespace pathview;

namespace {

const char kUsage[] =
    "usage: pvquery <db.{xml|pvdb}> \"<query>\" [flags]\n"
    "\n"
    "query grammar (clauses in any order, each at most once):\n"
    "  match '<pattern>'       call-path pattern: '/'-separated frame\n"
    "                          globs; '**' matches any number of frames\n"
    "  where <predicate>       metric predicate; metrics are EVENT.incl,\n"
    "                          EVENT.excl, or a quoted column name, and\n"
    "                          'total' is the root value of the nearest\n"
    "                          metric in the same comparison\n"
    "  select <m1>, <m2>, ...  projected columns, or aggregates over the\n"
    "                          matched set: count(*), sum(m), min(m),\n"
    "                          max(m), mean(m)\n"
    "  order by <m> [asc|desc] sort key (default desc; ties by node id)\n"
    "  limit N                 keep the first N rows\n"
    "\n"
    "flags:\n"
    "  --explain          print the compiled plan, don't execute\n"
    "  --json             emit the result as canonical JSON (byte-identical\n"
    "                     to the pvserve query op's \"result\" field)\n"
    "  --salvage          load damaged databases in degraded mode\n"
    "\n";

/// Point at the offending byte of a query that failed to parse/compile.
void print_query_error(const std::string& query_text, const ParseError& e) {
  std::fprintf(stderr, "pvquery: %s\n", e.what());
  if (e.offset() <= query_text.size()) {
    std::fprintf(stderr, "  %s\n  %*s^\n", query_text.c_str(),
                 static_cast<int>(e.offset()), "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, {"salvage", "explain", "json"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvquery", kUsage, &exit_code))
    return exit_code;
  if (args.positional.size() < 2) return tools::usage_error(kUsage);
  const std::string db_path = args.positional[0];
  // Unquoted queries arrive as several positionals; rejoin them.
  std::string query_text = args.positional[1];
  for (std::size_t i = 2; i < args.positional.size(); ++i)
    query_text += " " + args.positional[i];

  try {
    tools::ObsSession obs_session(args, "pvquery");
    {
      PV_SPAN("pvquery.run");
      db::LoadReport report;
      const db::Experiment exp =
          tools::load_experiment(db_path, args.has("salvage"), &report);
      tools::print_load_report("pvquery", report);

      metrics::Attribution attr =
          metrics::attribute_metrics(exp.cct(), metrics::all_events());
      // Stored derived metrics become queryable columns, exactly as a serve
      // session exposes them.
      for (const metrics::MetricDesc& d : exp.user_metrics())
        metrics::add_derived_metric(attr.table, d.name, d.formula);

      query::Plan plan;
      try {
        plan = query::compile(query::parse(query_text), exp.cct(), attr.table);
      } catch (const ParseError& e) {
        print_query_error(query_text, e);
        return 2;
      }

      if (args.has("explain")) {
        const std::string text = plan.explain();
        std::fwrite(text.data(), 1, text.size(), stdout);
      } else {
        const query::QueryResult result = plan.execute();
        if (args.has("json")) {
          const std::string line = serve::encode_query_result(result).dump();
          std::fwrite(line.data(), 1, line.size(), stdout);
          std::fputc('\n', stdout);
        } else {
          std::printf("query: %s\n", plan.text().c_str());
          std::printf(
              "%zu row(s); visited %llu nodes, scanned %llu rows, matched "
              "%llu\n\n",
              result.rows.size(),
              static_cast<unsigned long long>(result.stats.nodes_visited),
              static_cast<unsigned long long>(result.stats.rows_scanned),
              static_cast<unsigned long long>(result.stats.rows_matched));
          std::printf("%8s  %-52s", "node", "path");
          for (const std::string& c : result.columns)
            std::printf(" %18s", c.c_str());
          std::printf("\n");
          for (const query::ResultRow& row : result.rows) {
            const std::string& where = row.path.empty() ? row.label : row.path;
            std::printf("%8u  %-52s", row.node, where.c_str());
            for (const double v : row.values)
              std::printf(" %18s", format_scientific(v).c_str());
            std::printf("\n");
          }
        }
      }
    }
    obs_session.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvquery: %s\n", e.what());
    return 1;
  }
}
