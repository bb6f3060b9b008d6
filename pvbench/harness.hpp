// pvbench's shared machinery: run configuration, the metric spec read from
// BENCHMARK.json, sample statistics, the per-run result collector that
// prints every metric and the final one-line JSON verdict, and the span
// bookkeeping behind the traced (per-layer) runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pathview/obs/obs.hpp"

namespace pvbench {

namespace obs = pathview::obs;
using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Workload sizes. The full sizes are the benchmark; smoke sizes only keep
/// the harness and its checks exercised in a few seconds.
struct Sizes {
  std::uint32_t ranks = 64;         // postmortem-* and browse
  std::uint32_t members = 8;        // compare: ensemble members
  std::uint32_t member_ranks = 32;  // compare: ranks per member
  int setups = 5;                   // set-up repetitions (setup_s = median)
  int min_reps = 3;                 // fewer only if a rep exceeds the run
  int max_reps = 1000;
};

struct Config {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10;
  /// Non-empty: the traced run, writing its trace files here.
  std::string trace_dir;
  /// Working directory for generated inputs and outputs (cleared first).
  std::string workdir;
  bool smoke = false;
  Sizes sizes;

  bool traced() const { return !trace_dir.empty(); }
};

/// One metric declared in BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0;  // end-to-end only
};

struct Spec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;

  /// Parse BENCHMARK.json (throws pathview::Error on a malformed file).
  static Spec load(const std::string& path);
};

/// Median and quartiles with the same conventions as Python's
/// statistics.median and statistics.quantiles(n=4) ("exclusive").
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> v);

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double q);

double mean(const std::vector<double>& v);

/// Peak resident set size of this process so far, in MB (10^6 bytes).
double peak_rss_mb();

/// File size in MB (10^6 bytes).
double file_mb(const std::string& path);

std::string read_file(const std::string& path);

/// Collects one workload run's metrics and checks, then prints them: one
/// human-readable line per metric and, last, the single-line JSON object
/// {"correct", "attempted", "failed", "metrics"} holding every end-to-end
/// metric (untraced run) or every per-layer metric (traced run) of the
/// spec. A per-layer metric the workload never exercises reads 0.
class Run {
 public:
  Run(const Spec& spec, const Config& cfg);

  /// Record a metric as the median (with quartiles) of `samples`.
  void metric(std::string_view name, const std::vector<double>& samples);
  void metric(std::string_view name, double value);

  /// A correctness check; a failing one counts as a failed operation.
  void check(bool ok, const std::string& what);

  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  bool correct() const { return check_failures_ == 0; }

  /// Print everything; returns the process exit code (nonzero when a check
  /// failed or an end-to-end metric was never measured).
  int finish();

 private:
  const Spec& spec_;
  const Config& cfg_;
  std::map<std::string, Summary, std::less<>> values_;
  std::vector<std::string> order_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t check_failures_ = 0;
};

// --- traced runs ---------------------------------------------------------------

/// Durations of every `bench.*` span in a snapshot, grouped by name.
struct SpanTable {
  struct Entry {
    std::vector<double> wall_us;  // one per span instance
    double self_us = 0;           // summed over instances
  };
  std::map<std::string, Entry> by_name;
  /// Per `bench.iter` instance: the share of its wall time covered by its
  /// direct `bench.*` children.
  std::vector<double> iter_coverage;

  static SpanTable from(const obs::TraceSnapshot& snap);

  /// Median wall time of `name` in microseconds; 0 when absent.
  double median_us(const std::string& name) const;
  double percentile_us(const std::string& name, double q) const;
};

/// Counter value from a snapshot; 0 when absent.
std::uint64_t counter_value(const obs::TraceSnapshot& snap,
                            std::string_view name);

/// Write DIR/<workload>.trace.json (Chrome trace), DIR/<workload>.layers.json
/// (per bench.* span: count, wall and self time; plus the counter snapshot)
/// and DIR/<workload>.pvdb (the self-profile experiment, for pvdiff).
void write_trace(const std::string& dir, const std::string& workload,
                 const obs::TraceSnapshot& snap);

/// Start recording spans (after clearing the previous ones).
void begin_trace();
/// Stop recording and return what was recorded.
obs::TraceSnapshot end_trace();

// --- comparing recorded runs ------------------------------------------------------

/// `pvbench compare BASE CUR`: print a verdict per (workload, end-to-end
/// metric) for two files written by `--record`; returns 1 when any metric
/// regressed beyond its bound.
int compare_runs(const Spec& spec, const std::string& base_path,
                 const std::string& cur_path);

}  // namespace pvbench
