#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

#include "pathview/db/experiment.hpp"
#include "pathview/obs/export.hpp"
#include "pathview/obs/self_profile.hpp"
#include "pathview/serve/json.hpp"
#include "pathview/support/error.hpp"

namespace pvbench {

using pathview::serve::JsonValue;

namespace {

std::vector<MetricSpec> parse_metrics(const JsonValue& root, const char* key,
                                      bool with_bound) {
  const JsonValue* arr = root.find(key);
  if (arr == nullptr || !arr->is_array())
    throw pathview::Error(std::string("BENCHMARK.json: missing \"") + key +
                          "\" array");
  std::vector<MetricSpec> out;
  for (const JsonValue& m : arr->items()) {
    MetricSpec s;
    s.name = m.get_string("name", "");
    s.unit = m.get_string("unit", "");
    const std::string better = m.get_string("better", "");
    if (s.name.empty() || s.unit.empty() ||
        (better != "higher" && better != "lower"))
      throw pathview::Error(std::string("BENCHMARK.json: bad entry in \"") +
                            key + "\"");
    s.higher_is_better = better == "higher";
    if (with_bound) s.bound = m.get_number("bound", -1);
    if (with_bound && !(s.bound >= 0))
      throw pathview::Error("BENCHMARK.json: metric \"" + s.name +
                            "\" has no bound");
    out.push_back(std::move(s));
  }
  return out;
}

const MetricSpec* find_spec(const std::vector<MetricSpec>& v,
                            std::string_view name) {
  for (const MetricSpec& m : v)
    if (m.name == name) return &m;
  return nullptr;
}

}  // namespace

Spec Spec::load(const std::string& path) {
  const JsonValue root = JsonValue::parse(read_file(path));
  Spec spec;
  const JsonValue* wl = root.find("workloads");
  if (wl == nullptr || !wl->is_array())
    throw pathview::Error("BENCHMARK.json: missing \"workloads\" array");
  for (const JsonValue& w : wl->items())
    spec.workloads.push_back(w.get_string("name", ""));
  spec.end_to_end = parse_metrics(root, "end_to_end", /*with_bound=*/true);
  spec.per_layer = parse_metrics(root, "per_layer", /*with_bound=*/false);
  return spec;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles(data, n=4, method="exclusive").
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / 1e6;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw pathview::Error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- Run ------------------------------------------------------------------------

Run::Run(const Spec& spec, const Config& cfg) : spec_(spec), cfg_(cfg) {}

void Run::metric(std::string_view name, const std::vector<double>& samples) {
  if (find_spec(spec_.end_to_end, name) == nullptr &&
      find_spec(spec_.per_layer, name) == nullptr)
    throw pathview::Error("metric \"" + std::string(name) +
                          "\" is not declared in BENCHMARK.json");
  auto [it, inserted] = values_.insert_or_assign(std::string(name),
                                                 summarize(samples));
  if (inserted) order_.push_back(it->first);
}

void Run::metric(std::string_view name, double value) {
  metric(name, std::vector<double>{value});
}

void Run::check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures_;
  ++failed_;
  std::fprintf(stderr, "pvbench: %s: CHECK FAILED: %s\n",
               cfg_.workload.c_str(), what.c_str());
}

int Run::finish() {
  const std::vector<MetricSpec>& wanted =
      cfg_.traced() ? spec_.per_layer : spec_.end_to_end;
  std::printf("== pvbench %s (seed %llu, %s) ==\n", cfg_.workload.c_str(),
              static_cast<unsigned long long>(cfg_.seed),
              cfg_.traced() ? "traced" : "untraced");
  for (const std::string& name : order_) {
    const Summary& s = values_.find(name)->second;
    const MetricSpec* m = find_spec(spec_.end_to_end, name);
    if (m == nullptr) m = find_spec(spec_.per_layer, name);
    std::printf("  %-30s %14.4f %-6s", name.c_str(), s.median,
                m->unit.c_str());
    if (s.n > 1)
      std::printf("  [q1 %.4f, q3 %.4f, n=%zu]", s.q1, s.q3, s.n);
    std::printf("\n");
  }

  JsonValue metrics = JsonValue::object();
  for (const MetricSpec& m : wanted) {
    auto it = values_.find(m.name);
    double v = 0;
    if (it != values_.end()) {
      v = it->second.median;
    } else if (!cfg_.traced()) {
      check(false, "end-to-end metric " + m.name + " was not measured");
    }
    if (!std::isfinite(v)) {
      check(false, "metric " + m.name + " is not finite");
      v = 1e300;
    }
    metrics.set(m.name, JsonValue::object()
                            .set("value", JsonValue::number(v))
                            .set("unit", JsonValue::string(m.unit)));
  }
  std::printf("  attempted %llu, failed %llu, checks %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct() ? "passed" : "FAILED");
  JsonValue out = JsonValue::object();
  out.set("correct", JsonValue::boolean(correct()));
  out.set("attempted", JsonValue::number(std::max<std::uint64_t>(attempted_, 1)));
  out.set("failed", JsonValue::number(failed_));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// --- traced runs ----------------------------------------------------------------

SpanTable SpanTable::from(const obs::TraceSnapshot& snap) {
  SpanTable t;
  for (const obs::ThreadTrace& th : snap.threads) {
    std::vector<double> child_us(th.spans.size(), 0.0);
    std::vector<double> bench_child_us(th.spans.size(), 0.0);
    for (const obs::SpanRecord& s : th.spans) {
      if (s.parent < 0) continue;
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      child_us[static_cast<std::size_t>(s.parent)] += us;
      if (std::string_view(s.name).starts_with("bench."))
        bench_child_us[static_cast<std::size_t>(s.parent)] += us;
    }
    for (std::size_t i = 0; i < th.spans.size(); ++i) {
      const obs::SpanRecord& s = th.spans[i];
      const std::string_view name(s.name);
      if (!name.starts_with("bench.")) continue;
      const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      Entry& e = t.by_name[std::string(name)];
      e.wall_us.push_back(us);
      e.self_us += us - child_us[i];
      if (name == "bench.iter" && us > 0)
        t.iter_coverage.push_back(bench_child_us[i] / us);
    }
  }
  return t;
}

double SpanTable::median_us(const std::string& name) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : summarize(it->second.wall_us).median;
}

double SpanTable::percentile_us(const std::string& name, double q) const {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : percentile(it->second.wall_us, q);
}

std::uint64_t counter_value(const obs::TraceSnapshot& snap,
                            std::string_view name) {
  for (const auto& [k, v] : snap.counters)
    if (k == name) return v;
  return 0;
}

void write_trace(const std::string& dir, const std::string& workload,
                 const obs::TraceSnapshot& snap) {
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/" + workload;
  obs::write_text_file(base + ".trace.json", obs::to_chrome_trace(snap));

  const SpanTable table = SpanTable::from(snap);
  JsonValue spans = JsonValue::object();
  for (const auto& [name, e] : table.by_name) {
    double wall = 0;
    for (double us : e.wall_us) wall += us;
    spans.set(name,
              JsonValue::object()
                  .set("count", JsonValue::number(
                                    static_cast<std::uint64_t>(e.wall_us.size())))
                  .set("wall_ms", JsonValue::number(wall / 1e3))
                  .set("self_ms", JsonValue::number(e.self_us / 1e3)));
  }
  JsonValue counters = JsonValue::object();
  for (const auto& [k, v] : snap.counters)
    counters.set(k, JsonValue::number(v));
  JsonValue layers = JsonValue::object();
  layers.set("workload", JsonValue::string(workload));
  layers.set("spans", std::move(spans));
  layers.set("counters", std::move(counters));
  obs::write_text_file(base + ".layers.json", layers.dump() + "\n");

  pathview::db::save_binary(
      obs::self_profile_experiment(snap, "pvbench-" + workload),
      base + ".pvdb");
}

void begin_trace() {
  obs::reset();
  obs::set_enabled(true);
}

obs::TraceSnapshot end_trace() {
  obs::set_enabled(false);
  return obs::snapshot();
}

}  // namespace pvbench
