// `pvbench compare BASE CUR`: judge one set of recorded runs against
// another, metric by metric and workload by workload, with each end-to-end
// metric's bound from BENCHMARK.json and the pairing rule for a claimed
// gain: the change must win at least 9 of every 10 (base, current) pairs
// and the medians must differ by more than the base's interquartile range.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "pathview/serve/json.hpp"

namespace pvbench {

using pathview::serve::JsonValue;

namespace {

std::vector<double> runs_of(const JsonValue& file, const std::string& workload,
                            const std::string& metric) {
  std::vector<double> out;
  const JsonValue* wls = file.find("workloads");
  const JsonValue* wl = wls ? wls->find(workload) : nullptr;
  const JsonValue* runs = wl ? wl->find("runs") : nullptr;
  if (runs == nullptr || !runs->is_array()) return out;
  for (const JsonValue& r : runs->items())
    if (const JsonValue* v = r.find(metric); v && v->is_number())
      out.push_back(v->as_number());
  return out;
}

}  // namespace

int compare_runs(const Spec& spec, const std::string& base_path,
                 const std::string& cur_path) {
  const JsonValue base = JsonValue::parse(read_file(base_path));
  const JsonValue cur = JsonValue::parse(read_file(cur_path));
  std::printf("%-22s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric",
              "base", "current", "change", "wins", "verdict");
  int regressions = 0;
  for (const std::string& w : spec.workloads) {
    for (const MetricSpec& m : spec.end_to_end) {
      const std::vector<double> b = runs_of(base, w, m.name);
      const std::vector<double> c = runs_of(cur, w, m.name);
      if (b.empty() || c.empty()) continue;
      const Summary sb = summarize(b);
      const Summary sc = summarize(c);
      const auto better = [&](double x, double y) {
        return m.higher_is_better ? x > y : x < y;
      };
      const std::size_t pairs = std::min(b.size(), c.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i)
        if (better(c[i], b[i])) ++wins;
      bool all_better = true;
      for (double x : c)
        for (double y : b) all_better &= better(x, y);
      const double iqr = sb.q3 - sb.q1;
      const double spread = sb.median != 0 ? iqr / sb.median : 0;
      const double change =
          sb.median != 0 ? (sc.median - sb.median) / sb.median : 0;
      const double worse = m.higher_is_better ? -change : change;

      const char* verdict = "unchanged";
      if (10 * wins >= 9 * pairs && std::fabs(sc.median - sb.median) > iqr) {
        verdict = "improved";
      } else if (spread > m.bound && !all_better) {
        verdict = "unresolved";
      } else if (worse > m.bound) {
        verdict = "REGRESSED";
        ++regressions;
      }
      std::printf("%-22s %-12s %12.4f %12.4f %+7.1f%% %2zu/%-3zu  %s\n",
                  w.c_str(), m.name.c_str(), sb.median, sc.median,
                  change * 100, wins, pairs, verdict);
    }
  }
  return regressions ? 1 : 0;
}

}  // namespace pvbench
