// compare: `pvdiff` over an ensemble of runs. Set-up writes the member
// databases (each a separate 32-rank divergent run with its own control
// flow, the back half drifted +8%); one rep opens every member, aligns them
// into the supergraph (cycles only, baseline 0, threshold 0.05) and asks
// which call paths regressed. It reads many databases where browse reads
// one and postmortem writes one, and ensemble alignment does most of the
// work.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/ensemble/ensemble.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/query/plan.hpp"
#include "workloads.hpp"

namespace pvbench {

namespace pv = pathview;
namespace fs = std::filesystem;

namespace {

constexpr char kRegressionQuery[] =
    "match '**' where cycles.incl.regressed > 0 "
    "order by cycles.incl.delta desc limit 20";

struct Layers {
  double open_ms = 0, align_ms = 0, parse_us = 0, compile_us = 0;
  double execute_us = 0, scan_per_match = 0, coverage = 0;
};

bool same_rows(const pv::query::QueryResult& a,
               const pv::query::QueryResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i)
    if (a.rows[i].node != b.rows[i].node ||
        a.rows[i].values != b.rows[i].values)
      return false;
  return true;
}

}  // namespace

void run_compare(const Config& cfg, Run& run) {
  const Sizes& sz = cfg.sizes;
  std::vector<std::string> paths;
  for (std::uint32_t r = 0; r < sz.members; ++r)
    paths.push_back(cfg.workdir + "/member-" + std::to_string(r) + ".pvdb");

  // --- set-up: one simulated run per member, written as PVDB2 --------------
  std::vector<double> setup_s, sim_ms;
  for (int s = 0; s < sz.setups; ++s) {
    const Clock::time_point t0 = Clock::now();
    const pv::workloads::Workload w = make_program(Shape::kDivergent);
    double sim = 0;
    for (std::uint32_t r = 0; r < sz.members; ++r) {
      const Clock::time_point t_sim = Clock::now();
      const double drift = r >= sz.members / 2 ? 1.08 : 1.0;
      const std::vector<pv::sim::RawProfile> raws =
          simulate(w, sz.member_ranks, 1000 + r, cfg.seed, r + 1, drift);
      sim += ms_since(t_sim);
      pv::prof::PipelineOptions popts;
      popts.nthreads = kThreads;
      const pv::prof::CanonicalCct cct =
          pv::prof::Pipeline(popts).run(raws, *w.tree);
      pv::db::save_binary(pv::db::Experiment::capture(
                              *w.tree, cct, "run" + std::to_string(r),
                              sz.member_ranks),
                          paths[r]);
    }
    sim_ms.push_back(sim);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  run.metric("setup_s", setup_s);
  run.metric("sim.run_parallel_ms", sim_ms);

  pv::ensemble::EnsembleOptions eopts;
  eopts.baseline = 0;
  eopts.regress_threshold = 0.05;
  eopts.events = {pv::model::Event::kCycles};

  // Reference answer from the first alignment, plus an independent oracle
  // for the root's delta column: mean(other members' total cycles) minus the
  // baseline's, summed straight from each member's raw samples.
  std::size_t ref_nodes = 0;
  pv::query::QueryResult ref_rows;
  double expected_root_delta = 0;
  double db_bytes = 0;
  {
    std::vector<std::shared_ptr<const pv::db::Experiment>> members;
    for (const std::string& p : paths) {
      members.push_back(std::make_shared<const pv::db::Experiment>(
          std::move(pv::db::open(p).experiment)));
      db_bytes += file_mb(p);
    }
    const pv::ensemble::Ensemble ens =
        pv::ensemble::Ensemble::align(members, eopts);
    ref_nodes = ens.cct().size();
    ref_rows = pv::query::run(kRegressionQuery, ens.cct(),
                              ens.attribution().table);
    const auto cycles = static_cast<std::size_t>(pv::model::Event::kCycles);
    double others = 0;
    for (std::size_t k = 1; k < members.size(); ++k)
      others += members[k]->cct().totals().v[cycles];
    expected_root_delta = others / static_cast<double>(members.size() - 1) -
                          members[0]->cct().totals().v[cycles];
  }

  // --- measured reps -------------------------------------------------------
  std::vector<double> op_ms, traced_op_ms;
  std::vector<Layers> layers;
  double presence_mean = 0;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; more_reps(cfg, rep, start); ++rep) {
    const bool traced = cfg.traced() && rep % 2 == 1;
    if (traced) begin_trace();
    Layers l;
    std::vector<std::shared_ptr<const pv::db::Experiment>> members;
    std::vector<double> rep_open_ms;
    std::optional<pv::ensemble::Ensemble> ens;
    pv::query::QueryResult res;
    const Clock::time_point t0 = Clock::now();
    {
      PV_SPAN("bench.iter");
      for (const std::string& p : paths) {
        const Clock::time_point t = Clock::now();
        PV_SPAN("bench.db.open");
        members.push_back(std::make_shared<const pv::db::Experiment>(
            std::move(pv::db::open(p).experiment)));
        rep_open_ms.push_back(ms_since(t));
      }
      Clock::time_point t = Clock::now();
      {
        PV_SPAN("bench.ensemble.align");
        ens = pv::ensemble::Ensemble::align(members, eopts);
      }
      l.align_ms = ms_since(t);
      t = Clock::now();
      pv::query::Query q;
      {
        PV_SPAN("bench.query.parse");
        q = pv::query::parse(kRegressionQuery);
      }
      l.parse_us = ms_since(t) * 1e3;
      t = Clock::now();
      std::optional<pv::query::Plan> plan;
      {
        PV_SPAN("bench.query.compile");
        plan = pv::query::compile(std::move(q), ens->cct(),
                                  ens->attribution().table);
      }
      l.compile_us = ms_since(t) * 1e3;
      t = Clock::now();
      {
        PV_SPAN("bench.query.execute");
        res = plan->execute();
      }
      l.execute_us = ms_since(t) * 1e3;
    }
    const double op = ms_since(t0);
    l.open_ms = summarize(rep_open_ms).median;
    l.scan_per_match =
        res.stats.rows_matched
            ? static_cast<double>(res.stats.rows_scanned) /
                  static_cast<double>(res.stats.rows_matched)
            : 0;
    if (traced) {
      const obs::TraceSnapshot snap = end_trace();
      const SpanTable spans = SpanTable::from(snap);
      l.coverage = spans.iter_coverage.empty() ? 0 : spans.iter_coverage[0];
      layers.push_back(l);
      traced_op_ms.push_back(op);
      write_trace(cfg.trace_dir, cfg.workload, snap);
    } else {
      op_ms.push_back(op);
    }

    // --- checks (untimed) ---------------------------------------------------
    run.attempted(1);
    run.check(ens->cct().size() == ref_nodes,
              "supergraph size differs from the set-up reference");
    run.check(!res.rows.empty(), "the regression query found no drift");
    run.check(same_rows(res, ref_rows),
              "regression query rows differ from the set-up reference");
    const auto delta = ens->attribution().table.find("PAPI_TOT_CYC (I) delta");
    const double got =
        delta ? ens->attribution().table.get(*delta, pv::prof::kCctRoot) : NAN;
    run.check(std::fabs(got - expected_root_delta) <=
                  1e-9 * std::fabs(expected_root_delta) + 1e-6,
              "root delta differs from the members' raw totals");
    double presence = 0;
    for (pv::prof::CctNodeId n = 0; n < ens->cct().size(); ++n)
      presence += static_cast<double>(ens->presence_count(n));
    presence_mean = presence / static_cast<double>(ens->cct().size());
  }

  run.metric("op_p50_ms", op_ms);
  run.metric("ops_per_s", 1e3 / mean(op_ms));
  run.metric("db_mb", db_bytes / sz.members);
  run.metric("peak_rss_mb", peak_rss_mb());
  if (!cfg.traced()) return;

  const auto col = [&](double Layers::*f) {
    std::vector<double> v;
    for (const Layers& l : layers) v.push_back(l.*f);
    return v;
  };
  run.metric("db.open_ms", col(&Layers::open_ms));
  run.metric("db.read_mb", db_bytes);
  run.metric("ensemble.align_ms", col(&Layers::align_ms));
  run.metric("ensemble.supergraph_nodes", static_cast<double>(ref_nodes));
  run.metric("ensemble.presence_mean", presence_mean);
  std::vector<double> query_ms;
  for (const Layers& l : layers)
    query_ms.push_back((l.parse_us + l.compile_us + l.execute_us) / 1e3);
  run.metric("ensemble.query_ms", query_ms);
  run.metric("query.parse_us", col(&Layers::parse_us));
  run.metric("query.compile_us", col(&Layers::compile_us));
  run.metric("query.execute_us", col(&Layers::execute_us));
  run.metric("query.scan_per_match", col(&Layers::scan_per_match));
  std::vector<double> coverage = col(&Layers::coverage);
  run.metric("bench.span_coverage",
             *std::min_element(coverage.begin(), coverage.end()));
  run.metric("obs.trace_overhead_pct",
             (summarize(traced_op_ms).median / summarize(op_ms).median - 1) *
                 100);
}

}  // namespace pvbench
