// pvprof — the hpcprof analog: profile a workload, correlate the raw
// profiles with the recovered structure into a canonical CCT (merging all
// ranks), and write an experiment database.
//
// Usage: pvprof <workload> -o out.{xml|pvdb} [--ranks N] [--seed S]
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pathview/db/experiment.hpp"
#include "pathview/db/measurement.hpp"
#include "pathview/db/trace.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/prof/trace_resolve.hpp"
#include "pathview/workloads/registry.hpp"
#include "tool_util.hpp"

using namespace pathview;

namespace {

const char kUsage[] =
    "usage: pvprof <workload> -o out.{xml|pvdb} [--ranks N] "
    "[--seed S] [--measurements dir] [--salvage] [--merge-arity K] "
    "[--trace-events[=EVENT]]\n"
    "  --measurements: correlate hpcrun-style files written by\n"
    "                  'pvrun <workload> -o dir' instead of\n"
    "                  re-running the simulation\n"
    "  --salvage:      tolerate damaged/missing per-rank measurement\n"
    "                  files: drop them, report the damage, and mark the\n"
    "                  experiment degraded\n"
    "  --merge-arity:  children per reduction-tree merge node (default 2);\n"
    "                  the merged CCT is identical for any arity\n"
    "  --trace-events: write canonical per-rank time-centric traces to\n"
    "                  <out>.trace/trace-NNNNN.pvt; captures during the\n"
    "                  simulation, or converts raw rank-NNNNN.pvtr files\n"
    "                  found in the --measurements directory\n";

/// Rewrite one rank's raw trace stream (rank-local trie node + leaf addr)
/// into a canonical trace (merged-CCT ids) with one streaming pass.
std::uint64_t convert_trace(const db::TraceReader& raw,
                            prof::TraceResolver::RankMap map,
                            const std::string& out_path, std::uint32_t rank) {
  PV_SPAN("trace.convert");
  db::TraceWriter out(out_path, rank);
  raw.for_each_in(raw.t_begin(), raw.t_end(),
                  [&](const sim::TraceEvent& ev) {
                    out.append({ev.time, map.resolve(ev), 0});
                  });
  out.close();
  return out.records_written();
}

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv, {"salvage", "trace-events"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvprof", kUsage, &exit_code))
    return exit_code;
  const std::string out = args.flag_str("o", args.flag_str("output", ""));
  if (args.positional.empty() || out.empty())
    return tools::usage_error(kUsage);
  try {
    tools::ObsSession obs_session(args, "pvprof");
    {
      PV_SPAN("pvprof.run");
      const auto nranks = static_cast<std::uint32_t>(args.flag("ranks", 1));
      const auto seed = static_cast<std::uint64_t>(args.flag("seed", 42));
      const std::uint32_t nthreads = tools::thread_count(args);
      workloads::Workload w =
          workloads::make_workload(args.positional[0], nranks, seed);
      const std::string mdir = args.flag_str("measurements", "");
      model::Event trace_event = model::Event::kCycles;
      const bool trace = tools::trace_events_flag(args, &trace_event);
      const std::string tdir = db::trace_dir_for(out);

      // With --trace-events and no measurement dir, capture raw traces
      // (spilled to disk, bounded memory) while the simulation runs; they
      // are converted to canonical traces after the merge below.
      std::vector<std::unique_ptr<db::TraceWriter>> tracers;
      if (trace) {
        std::filesystem::create_directories(tdir);
        if (mdir.empty()) {
          w.run.trace.event = trace_event;
          db::TraceWriterOptions topts;
          topts.with_leaf = true;
          for (std::uint32_t r = 0; r < std::max(1u, nranks); ++r)
            tracers.push_back(std::make_unique<db::TraceWriter>(
                db::raw_trace_path(tdir, r), r, topts));
        }
      }
      std::function<sim::TraceSink*(std::uint32_t, std::uint32_t)> sink_for;
      if (!tracers.empty())
        sink_for = [&tracers](std::uint32_t rank, std::uint32_t) {
          return static_cast<sim::TraceSink*>(tracers[rank].get());
        };
      db::LoadReport report;
      db::LoadOptions lopts;
      lopts.salvage = args.has("salvage");
      const auto raws =
          mdir.empty() ? workloads::profile_workload(w, nranks, nthreads,
                                                     std::move(sink_for))
                       : db::load_measurements(mdir, lopts, &report);
      tools::print_load_report("pvprof", report);
      for (auto& t : tracers) t->close();
      prof::PipelineOptions popts;
      popts.nthreads = nthreads;
      popts.reduction_arity =
          static_cast<std::uint32_t>(args.flag("merge-arity", 2));
      const prof::CanonicalCct merged =
          prof::Pipeline(std::move(popts)).run(raws, *w.tree);

      db::Experiment exp =
          db::Experiment::capture(*w.tree, merged, args.positional[0], nranks);
      if (report.degraded) {
        exp.set_degraded(true);
        exp.set_dropped_ranks(report.dropped_ranks);
      }
      const bool binary =
          out.size() > 5 && out.substr(out.size() - 5) == ".pvdb";
      if (binary)
        db::save_binary(exp, out);
      else
        db::save_xml(exp, out);
      std::printf(
          "wrote %s experiment '%s' (%zu CCT scopes, %zu rank(s)) to %s\n",
          binary ? "binary" : "XML", exp.name().c_str(), exp.cct().size(),
          raws.size(), out.c_str());

      if (trace) {
        // Correlate each rank's raw trace onto the merged CCT so traces and
        // the three profile views share one id space.
        const prof::TraceResolver resolver(merged);
        const std::string raw_dir = mdir.empty() ? tdir : mdir;
        std::uint64_t records = 0;
        std::uint32_t files = 0;
        for (std::uint32_t r = 0; r < raws.size(); ++r) {
          const std::string raw_path = db::raw_trace_path(raw_dir, r);
          if (!std::filesystem::exists(raw_path)) {
            if (r == 0)
              throw InvalidArgument("--trace-events: no raw trace '" +
                                    raw_path +
                                    "' (run pvrun with --trace-events)");
            break;
          }
          const db::TraceReader raw(raw_path);
          records += convert_trace(raw, resolver.map_rank(raws[r]),
                                   db::trace_path(tdir, r), r);
          ++files;
          if (mdir.empty()) std::filesystem::remove(raw_path);
        }
        std::printf("wrote %u canonical trace file(s) (%llu records) to %s/\n",
                    files, static_cast<unsigned long long>(records),
                    tdir.c_str());
      }
    }
    obs_session.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvprof: %s\n", e.what());
    return 1;
  }
}
