// postmortem-divergent / postmortem-spmd: the post-mortem analysis of a
// 64-rank run, as `pvprof --measurements DIR -o exp.pvdb` performs it, plus
// the per-scope summary statistics of paper Sec. VII. One rep is
//   load_measurements -> Pipeline::run -> Experiment::capture ->
//   save_binary -> summarize
// and the database it wrote is then opened the way pvviewer opens it.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/db/measurement.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/prof/summarize.hpp"
#include "pathview/ui/controller.hpp"
#include "workloads.hpp"

namespace pvbench {

namespace pv = pathview;
namespace fs = std::filesystem;

namespace {

bool same_cct(const pv::prof::CanonicalCct& a, const pv::prof::CanonicalCct& b) {
  if (a.size() != b.size()) return false;
  for (pv::prof::CctNodeId id = 0; id < a.size(); ++id) {
    const pv::prof::CctNode& x = a.node(id);
    const pv::prof::CctNode& y = b.node(id);
    if (x.kind != y.kind || x.parent != y.parent || x.scope != y.scope ||
        x.call_site != y.call_site || x.children != y.children ||
        a.samples(id).v != b.samples(id).v)
      return false;
  }
  return true;
}

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/// What one traced rep measured, per layer.
struct Layers {
  double load_ms = 0, correlate_ms = 0, merge_ms = 0, run_ms = 0;
  double save_ms = 0, summarize_ms = 0, open_ms = 0, attribute_ms = 0;
  double controller_ms = 0, coverage = 0, part_nodes = 0, alloc_ratio = 0;
};

}  // namespace

void run_postmortem(const Config& cfg, Shape shape, Run& run) {
  const Sizes& sz = cfg.sizes;
  const std::string meas_dir = cfg.workdir + "/measurements";
  const std::string out_path = cfg.workdir + "/exp.pvdb";

  // --- set-up: program, 64-rank simulation, measurement files -------------
  std::vector<double> setup_s, sim_ms;
  pv::workloads::Workload w;
  std::vector<pv::sim::RawProfile> raws;
  for (int s = 0; s < sz.setups; ++s) {
    raws.clear();
    const Clock::time_point t0 = Clock::now();
    w = make_program(shape);
    const Clock::time_point t_sim = Clock::now();
    raws = simulate(w, sz.ranks, w.run.seed, cfg.seed, /*stream=*/0);
    sim_ms.push_back(ms_since(t_sim));
    fs::remove_all(meas_dir);
    fs::create_directories(meas_dir);
    pv::db::save_measurements(raws, meas_dir);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  run.metric("setup_s", setup_s);
  run.metric("sim.run_parallel_ms", sim_ms);

  // References, untimed: a serial (nthreads=1) database and the raw totals.
  const pv::structure::StructureTree& tree = *w.tree;
  pv::model::EventVector raw_totals;
  for (const pv::sim::RawProfile& r : raws) raw_totals += r.totals();
  std::string ref_bytes;
  {
    pv::prof::PipelineOptions serial;
    serial.nthreads = 1;
    const pv::prof::CanonicalCct ref = pv::prof::Pipeline(serial).run(raws, tree);
    ref_bytes = pv::db::to_binary(
        pv::db::Experiment::capture(tree, ref, cfg.workload, sz.ranks));
  }
  raws.clear();
  raws.shrink_to_fit();
  double measurement_mb = 0;
  for (const auto& e : fs::directory_iterator(meas_dir))
    measurement_mb += file_mb(e.path().string());

  pv::prof::PipelineOptions popts;
  popts.nthreads = kThreads;
  const pv::prof::Pipeline pipeline(popts);

  // --- measured reps -------------------------------------------------------
  // The traced run alternates untraced and traced reps: the untraced ones
  // give the headline the traced ones are compared against.
  std::vector<double> op_ms, traced_op_ms;
  std::vector<Layers> layers;
  double merged_nodes = 0;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; more_reps(cfg, rep, start); ++rep) {
    const bool traced = cfg.traced() && rep % 2 == 1;
    if (traced) begin_trace();
    Layers l;
    std::vector<pv::prof::CanonicalCct> parts;
    pv::prof::CanonicalCct merged(&tree);
    pv::prof::CanonicalCct split(&tree);
    pv::prof::SummaryCct summary{pv::prof::CanonicalCct(&tree), {}, 0};
    std::vector<pv::sim::RawProfile> loaded;
    double op = 0;
    std::size_t root_rows = 0;
    std::optional<pv::db::Experiment> exp;
    std::optional<pv::db::OpenResult> opened;
    {
      PV_SPAN("bench.iter");
      Clock::time_point t = Clock::now();
      {
        PV_SPAN("bench.db.load_measurements");
        loaded = pv::db::load_measurements(meas_dir);
      }
      op += (l.load_ms = ms_since(t));
      if (traced) {
        // Pipeline::run overlaps correlation with the merge; its public
        // halves, timed apart, show what the overlap buys.
        t = Clock::now();
        {
          PV_SPAN("bench.prof.correlate");
          parts = pipeline.correlate(loaded, tree);
        }
        l.correlate_ms = ms_since(t);
        for (const auto& p : parts) l.part_nodes += static_cast<double>(p.size());
        t = Clock::now();
        {
          PV_SPAN("bench.prof.merge");
          split = pipeline.merge(std::move(parts));
        }
        l.merge_ms = ms_since(t);
      }
      t = Clock::now();
      {
        PV_SPAN("bench.prof.run");
        merged = pipeline.run(loaded, tree);
      }
      l.run_ms = ms_since(t);
      {
        PV_SPAN("bench.db.capture");
        exp = pv::db::Experiment::capture(tree, merged, cfg.workload, sz.ranks);
      }
      const Clock::time_point t_save = Clock::now();
      {
        PV_SPAN("bench.db.save_binary");
        pv::db::save_binary(*exp, out_path);
      }
      l.save_ms = ms_since(t_save);
      const Clock::time_point t_sum = Clock::now();
      {
        PV_SPAN("bench.prof.summarize");
        summary = pv::prof::summarize(loaded, tree, kThreads);
      }
      l.summarize_ms = ms_since(t_sum);
      op += ms_since(t);

      // What the user does next: open the database in the viewer.
      t = Clock::now();
      {
        PV_SPAN("bench.db.open");
        opened = pv::db::open(out_path);
      }
      l.open_ms = ms_since(t);
      const Clock::time_point t_attr = Clock::now();
      pv::metrics::Attribution attr;
      {
        PV_SPAN("bench.metrics.attribute");
        attr = pv::metrics::attribute_metrics(opened->experiment.cct(),
                                              pv::metrics::all_events());
      }
      l.attribute_ms = ms_since(t_attr);
      const Clock::time_point t_ctl = Clock::now();
      {
        PV_SPAN("bench.ui.controller");
        pv::ui::ViewerController ctl(opened->experiment.cct(), attr);
        root_rows = ctl.current().children_of(pv::core::kViewRoot).size();
      }
      l.controller_ms = ms_since(t_ctl);
    }
    if (traced) {
      const obs::TraceSnapshot snap = end_trace();
      const SpanTable spans = SpanTable::from(snap);
      l.coverage = spans.iter_coverage.empty() ? 0 : spans.iter_coverage[0];
      const double created =
          static_cast<double>(counter_value(snap, "prof.cct_nodes_created"));
      l.alloc_ratio =
          created > 0 ? static_cast<double>(counter_value(
                            snap, "prof.cct_nodes_allocated")) / created
                      : 0;
      layers.push_back(l);
      traced_op_ms.push_back(op);
      write_trace(cfg.trace_dir, cfg.workload, snap);
    } else {
      op_ms.push_back(op);
    }

    // --- checks (untimed) ---------------------------------------------------
    run.attempted(1);
    merged_nodes = static_cast<double>(merged.size());
    run.check(read_file(out_path) == ref_bytes,
              "PVDB2 bytes differ from the serial reference");
    std::string why;
    run.check(pv::db::Experiment::equivalent(*exp, opened->experiment, &why),
              "reloaded experiment is not equivalent: " + why);
    run.check(same_cct(summary.cct, merged),
              "summarize union differs from the merged CCT");
    const pv::model::EventVector totals = merged.totals();
    for (std::size_t e = 0; e < pv::model::kNumEvents; ++e)
      run.check(close(totals.v[e], raw_totals.v[e]),
                "merged CCT totals differ from the raw measurements");
    const auto& root_stats = summary.stats(pv::prof::kCctRoot,
                                           pv::model::Event::kCycles);
    run.check(root_stats.count() == sz.ranks &&
                  close(root_stats.sum(), totals.v[static_cast<std::size_t>(
                                              pv::model::Event::kCycles)]),
              "summary statistics do not cover every rank");
    run.check(root_rows > 0, "the opened CCT view has no rows");
    if (traced) run.check(split.size() == merged.size(),
                          "correlate+merge and run disagree");
  }

  // --- metrics -------------------------------------------------------------
  const double db_mb = file_mb(out_path);
  run.metric("op_p50_ms", op_ms);
  run.metric("ops_per_s", 1e3 / mean(op_ms));
  run.metric("db_mb", db_mb);
  run.metric("peak_rss_mb", peak_rss_mb());
  if (!cfg.traced()) return;

  const auto col = [&](double Layers::*f) {
    std::vector<double> v;
    for (const Layers& l : layers) v.push_back(l.*f);
    return v;
  };
  run.metric("db.load_measurements_ms", col(&Layers::load_ms));
  run.metric("db.measurement_mb", measurement_mb);
  run.metric("prof.correlate_ms", col(&Layers::correlate_ms));
  run.metric("prof.merge_ms", col(&Layers::merge_ms));
  run.metric("prof.run_ms", col(&Layers::run_ms));
  std::vector<double> overlap;
  for (const Layers& l : layers)
    overlap.push_back(l.run_ms - l.correlate_ms - l.merge_ms);
  run.metric("prof.overlap_ms", overlap);
  const double part_nodes = summarize(col(&Layers::part_nodes)).median;
  run.metric("prof.part_nodes", part_nodes);
  run.metric("prof.merged_nodes", merged_nodes);
  run.metric("prof.dedup_ratio", part_nodes / merged_nodes);
  run.metric("prof.alloc_ratio", col(&Layers::alloc_ratio));
  run.metric("prof.summarize_ms", col(&Layers::summarize_ms));
  run.metric("db.save_binary_ms", col(&Layers::save_ms));
  run.metric("db.written_mb", db_mb);
  run.metric("db.open_ms", col(&Layers::open_ms));
  run.metric("db.read_mb", db_mb);
  run.metric("metrics.attribute_ms", col(&Layers::attribute_ms));
  run.metric("ui.controller_ms", col(&Layers::controller_ms));
  std::vector<double> coverage = col(&Layers::coverage);
  run.metric("bench.span_coverage",
             *std::min_element(coverage.begin(), coverage.end()));
  run.metric("obs.trace_overhead_pct",
             (summarize(traced_op_ms).median / summarize(op_ms).median - 1) *
                 100);
}

}  // namespace pvbench
