// pvdiff — differential profiling across N experiment databases.
//
// Ensemble mode (default): align every input run into one supergraph CCT
// (pathview::ensemble), materialize per-run + differential metric columns,
// and print the call paths that regressed the most against the baseline
// run. Inputs may be literal databases, globs, or directories (a pvserve
// --self-profile-dir window ring expands in window order).
//
//   pvdiff runs/*.pvdb --baseline 0 --metric cycles.incl --top 20
//   pvdiff --self-profile-dir /var/pv/profiles --json
//
// `pvdiff --scaling <base> <scaled>` is the 2-member case: the pair's
// supergraph plus a strong/weak SCALING LOSS column (paper Sec. VI-A).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "pathview/ensemble/ensemble.hpp"
#include "pathview/ensemble/inputs.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/serve/query_codec.hpp"
#include "pathview/support/format.hpp"
#include "tool_util.hpp"

using namespace pathview;

namespace {

const char kUsage[] =
    "usage: pvdiff <run> <run> [<run> ...] [flags]        ensemble mode\n"
    "       pvdiff --scaling <base> <scaled> [flags]      scaling-loss mode\n"
    "\n"
    "ensemble mode — align N runs into one supergraph and rank regressions\n"
    "against a baseline run. Inputs are databases, globs, or directories\n"
    "(expanded sorted, in place; a directory contributes its .pvdb/.xml\n"
    "files, so a pvserve --self-profile-dir ring diffs in window order):\n"
    "  --self-profile-dir D  add directory D's window ring as inputs\n"
    "  --baseline K       run index the diff columns measure against (0)\n"
    "  --metric M         metric ref, EVENT.incl|EVENT.excl (cycles.incl)\n"
    "  --threshold F      relative regression threshold (0.05 = 5%)\n"
    "  --top N            rows in the regression table (20)\n"
    "  --query 'TEXT'     run TEXT over the ensemble instead of the\n"
    "                     built-in top-regressions query (ensemble columns\n"
    "                     are EVENT.incl.run<K>|mean|min|max|stddev|delta|\n"
    "                     ratio|regressed, plus 'presence')\n"
    "  --json             emit the result as canonical JSON, byte-identical\n"
    "                     to the pvserve open_ensemble + query ops' "
    "\"result\"\n"
    "  --salvage          load damaged databases in degraded mode\n"
    "\n"
    "scaling mode — a 2-member ensemble plus a SCALING LOSS column:\n"
    "  --event E --mode strong|weak --ranks-base N --ranks-scaled M --top "
    "N\n"
    "\n";

/// Point at the offending byte of a query that failed to parse/compile.
void print_query_error(const std::string& query_text, const ParseError& e) {
  std::fprintf(stderr, "pvdiff: %s\n", e.what());
  if (e.offset() <= query_text.size()) {
    std::fprintf(stderr, "  %s\n  %*s^\n", query_text.c_str(),
                 static_cast<int>(e.offset()), "");
  }
}

int run_scaling(const tools::Args& args) {
  const bool salvage = args.has("salvage");
  db::LoadReport report;
  const auto base = std::make_shared<const db::Experiment>(
      tools::load_experiment(args.positional[0], salvage, &report));
  const auto scaled = std::make_shared<const db::Experiment>(
      tools::load_experiment(args.positional[1], salvage, &report));
  tools::print_load_report("pvdiff", report);

  const model::Event event =
      tools::parse_event(args.flag_str("event", "cycles"));
  metrics::ScalingMode mode = metrics::ScalingMode::kStrong;
  const std::string mode_name = args.flag_str("mode", "strong");
  if (mode_name == "weak")
    mode = metrics::ScalingMode::kWeak;
  else if (mode_name != "strong")
    throw InvalidArgument("bad --mode (strong|weak)");
  const ensemble::ScalingDiff d = ensemble::scaling_diff(
      base, scaled, event,
      static_cast<double>(args.flag("ranks-base", base->nranks())),
      static_cast<double>(args.flag("ranks-scaled", scaled->nranks())), mode);
  const prof::CanonicalCct& u = d.cct();
  const metrics::MetricTable& t = d.table();

  std::printf("base '%s' (%zu scopes) vs scaled '%s' (%zu scopes); union "
              "has %zu scopes\n",
              base->name().c_str(), base->cct().size(), scaled->name().c_str(),
              scaled->cct().size(), u.size());
  std::printf("root %s: base %s, scaled %s, loss %s\n\n",
              model::event_name(event),
              format_scientific(t.get(d.base_col, 0)).c_str(),
              format_scientific(t.get(d.scaled_col, 0)).c_str(),
              format_scientific(t.get(d.loss_col, 0)).c_str());

  // Frames ranked by loss.
  struct Row {
    prof::CctNodeId node;
    double loss;
  };
  std::vector<Row> rows;
  for (prof::CctNodeId n = 1; n < u.size(); ++n)
    if (u.node(n).kind == prof::CctKind::kFrame ||
        u.node(n).kind == prof::CctKind::kLoop)
      rows.push_back(Row{n, t.get(d.loss_col, n)});
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.loss > b.loss; });
  const auto top = static_cast<std::size_t>(args.flag("top", 10));
  std::printf("%-52s %14s %14s %14s\n", "scope (frames and loops, by loss)",
              "base", "scaled", "loss");
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    const Row& r = rows[i];
    std::printf("%-52s %14s %14s %14s\n", u.label(r.node).c_str(),
                format_scientific(t.get(d.base_col, r.node)).c_str(),
                format_scientific(t.get(d.scaled_col, r.node)).c_str(),
                format_scientific(r.loss).c_str());
  }
  return 0;
}

int run_ensemble(const tools::Args& args) {
  std::vector<std::string> inputs = args.positional;
  const std::string ring = args.flag_str("self-profile-dir", "");
  if (!ring.empty()) inputs.push_back(ring);
  if (inputs.empty()) return tools::usage_error(kUsage);
  const std::vector<std::string> paths = ensemble::expand_inputs(inputs);
  if (paths.size() < 2)
    throw InvalidArgument("ensemble mode needs at least 2 runs (got " +
                          std::to_string(paths.size()) +
                          "); see pvdiff --help");

  const bool salvage = args.has("salvage");
  const bool json = args.has("json");
  std::vector<std::shared_ptr<const db::Experiment>> members;
  members.reserve(paths.size());
  for (const std::string& p : paths) {
    db::LoadReport report;
    members.push_back(std::make_shared<const db::Experiment>(
        tools::load_experiment(p, salvage, &report)));
    tools::print_load_report("pvdiff", report);
  }

  ensemble::EnsembleOptions eopts;
  eopts.baseline = static_cast<std::size_t>(args.flag("baseline", 0));
  {
    const std::string thr = args.flag_str("threshold", "0.05");
    char* end = nullptr;
    eopts.regress_threshold = std::strtod(thr.c_str(), &end);
    if (end == thr.c_str() || *end != '\0')
      throw InvalidArgument("bad --threshold '" + thr + "'");
  }
  const ensemble::Ensemble ens =
      ensemble::Ensemble::align(members, paths, eopts);

  const std::string metric = args.flag_str("metric", "cycles.incl");
  if (query::resolve_metric_name(metric) == metric)
    throw InvalidArgument("bad --metric '" + metric +
                          "' (want EVENT.incl or EVENT.excl)");
  const auto top = static_cast<std::size_t>(args.flag("top", 20));
  // The built-in question: which call paths regressed vs the baseline?
  // Built from the same grammar the serve query op compiles, so --json
  // output is byte-identical to the daemon's for the same text.
  std::string query_text = args.flag_str("query", "");
  if (query_text.empty()) {
    const std::string b = "run" + std::to_string(ens.baseline());
    query_text = "match '**' where " + metric + ".regressed > 0 select " +
                 metric + "." + b + ", " + metric + ".mean, " + metric +
                 ".delta, " + metric + ".ratio order by " + metric +
                 ".delta desc limit " + std::to_string(top);
  }

  query::Plan plan;
  try {
    plan = query::compile(query::parse(query_text), ens.cct(),
                          ens.attribution().table);
  } catch (const ParseError& e) {
    print_query_error(query_text, e);
    return 2;
  }
  const query::QueryResult result = plan.execute();

  if (json) {
    const std::string line = serve::encode_query_result(result).dump();
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }

  // The pvviewer-style banner: a degraded member taints the whole ensemble.
  std::printf("ensemble of %zu runs; baseline run%zu = %s%s\n",
              ens.num_members(), ens.baseline(),
              ens.members()[ens.baseline()].path.c_str(),
              ens.degraded() ? " [DEGRADED]" : "");
  for (std::size_t k = 0; k < ens.num_members(); ++k) {
    const ensemble::MemberInfo& m = ens.members()[k];
    std::printf("  run%-3zu %-40s '%s', %u rank(s), %zu scopes%s\n", k,
                m.path.c_str(), m.name.c_str(), m.nranks, m.cct_nodes,
                m.degraded ? " [DEGRADED]" : "");
  }
  std::printf("supergraph: %zu scopes, %zu metric columns\n\n",
              ens.cct().size(), ens.attribution().table.num_columns());
  if (ens.degraded())
    std::printf("DEGRADED: at least one run is missing measured data; "
                "differential columns may undercount it\n\n");

  std::printf("query: %s\n", plan.text().c_str());
  std::printf("%zu regressed path(s); visited %llu nodes, scanned %llu rows, "
              "matched %llu\n\n",
              result.rows.size(),
              static_cast<unsigned long long>(result.stats.nodes_visited),
              static_cast<unsigned long long>(result.stats.rows_scanned),
              static_cast<unsigned long long>(result.stats.rows_matched));
  std::printf("%8s  %-52s", "node", "path");
  for (const std::string& c : result.columns) std::printf(" %18s", c.c_str());
  std::printf("\n");
  for (const query::ResultRow& row : result.rows) {
    const std::string& where = row.path.empty() ? row.label : row.path;
    std::printf("%8u  %-52s", row.node, where.c_str());
    for (const double v : row.values)
      std::printf(" %18s", format_scientific(v).c_str());
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, {"salvage", "json", "scaling"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvdiff", kUsage, &exit_code))
    return exit_code;
  const bool scaling = args.has("scaling");
  if (scaling && args.positional.size() != 2)
    return tools::usage_error(kUsage);
  if (!scaling && args.positional.empty() && !args.has("self-profile-dir"))
    return tools::usage_error(kUsage);
  try {
    tools::ObsSession obs_session(args, "pvdiff");
    int rc = 0;
    {
      PV_SPAN("pvdiff.run");
      rc = scaling ? run_scaling(args) : run_ensemble(args);
    }
    obs_session.finish();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvdiff: %s\n", e.what());
    return 1;
  }
}
