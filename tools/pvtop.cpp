// pvtop — a live dashboard over a running pvserve daemon.
//
// Polls the `stats` op (the one deliberately non-deterministic response in
// the protocol) and renders the server's RED metrics — per-op request rate,
// error count, and latency percentiles straight from the daemon's log-linear
// histograms — plus session/cache/queue gauges, as a self-refreshing ANSI
// screen. `--once` prints a single plain frame and exits, which is what
// scripts and the smoke tests use.
//
// All rendering is client-side string building on top of ui/ansi.hpp; the
// daemon only ever sees ordinary `stats` requests.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pathview/serve/client.hpp"
#include "pathview/ui/ansi.hpp"
#include "tool_util.hpp"

namespace {

const std::string kUsage = R"(pvtop - live pvserve dashboard

usage:
  pvtop --port N [flags]

flags:
  --port N          daemon port (required)
  --host ADDR       daemon address (default 127.0.0.1)
  --interval-ms N   poll cadence (default 1000)
  --count N         render N frames then exit (default 0 = until Ctrl-C)
  --once            render one plain frame and exit (no screen control;
                    implies --count 1 --no-ansi)
  --no-ansi         plain text: no colors, no redraw-in-place, ASCII
                    sparklines
  --reconnect N     live mode only: consecutive transport failures ridden
                    out (header shows STALE, bounded backoff) before pvtop
                    gives up with exit 3 (default 5)

exit codes: 0 ok; 2 the daemon refused a stats request; 3 transport error
(daemon unreachable or connection torn). Live mode rides out up to
--reconnect consecutive transport errors before exiting 3; --once fails
fast on the first one.
)";

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct OpRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t errors = 0;
  std::uint64_t p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  double qps = 0;  // since the previous frame
};

/// Rolling per-op qps history feeding the trend sparklines.
constexpr std::size_t kTrendLen = 24;

std::string fmt_uptime(std::uint64_t ms) {
  const std::uint64_t s = ms / 1000;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%02llu:%02llu:%02llu",
                static_cast<unsigned long long>(s / 3600),
                static_cast<unsigned long long>(s / 60 % 60),
                static_cast<unsigned long long>(s % 60));
  return buf;
}

std::string fmt_mib(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f MiB", bytes / (1024.0 * 1024.0));
  return buf;
}

int run(const pathview::tools::Args& args) {
  using namespace pathview;
  namespace ansi = ui::ansi;

  const long port = args.flag("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "pvtop: --port N is required\n");
    return 2;
  }
  const std::string host = args.flag_str("host", "127.0.0.1");
  const bool once = args.has("once");
  const bool use_ansi = !once && !args.has("no-ansi");
  const long interval_ms = std::max(50l, args.flag("interval-ms", 1000));
  long count = std::max(0l, args.flag("count", 0));
  if (once) count = 1;

  const long reconnect_limit = std::max(1l, args.flag("reconnect", 5));
  std::unique_ptr<serve::Client> client;

  std::map<std::string, std::uint64_t> prev_counts;
  std::map<std::string, std::deque<double>> trend;
  auto prev_time = std::chrono::steady_clock::now();
  bool first_frame = true;
  std::string last_body;  // previous rendered frame, reshown under STALE

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  if (use_ansi) std::fputs(ansi::kHideCursor, stdout);

  int rc = 0;
  int failures = 0;
  for (long frame = 0; !g_stop;) {
    serve::JsonValue reply;
    serve::JsonValue prof;
    try {
      if (!client)
        client = std::make_unique<serve::Client>(
            host, static_cast<std::uint16_t>(port));
      reply = client->call_op("stats", serve::JsonValue::object());
      serve::JsonValue pbody = serve::JsonValue::object();
      pbody.set("max", serve::JsonValue::number(std::uint64_t{8}));
      prof = client->call_op("self_profile", std::move(pbody));
      failures = 0;
    } catch (const serve::TransportError& e) {
      // --once keeps the fail-fast exit-code taxonomy; live mode rides out
      // transient daemon restarts: drop the connection, mark the screen
      // STALE, and retry with bounded backoff.
      if (once) throw;
      client.reset();
      if (++failures >= reconnect_limit) {
        std::fprintf(stderr,
                     "pvtop: giving up after %d transport failure(s): %s\n",
                     failures, e.what());
        rc = 3;
        break;
      }
      std::string out;
      if (use_ansi) out += ansi::kClearHome;
      char banner[200];
      std::snprintf(banner, sizeof banner,
                    "pvtop — %s:%ld   STALE (daemon unreachable, reconnect "
                    "%d/%ld)\n",
                    host.c_str(), port, failures,
                    reconnect_limit);
      out += ansi::styled(ansi::kBold, banner, use_ansi);
      out += last_body;
      std::fwrite(out.data(), 1, out.size(), stdout);
      std::fflush(stdout);
      const long backoff = std::min(
          5000l, interval_ms << std::min(failures - 1, 4));
      for (long slept = 0; slept < backoff && !g_stop; slept += 50)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min(50l, backoff - slept)));
      continue;
    }
    if (!reply.get_bool("ok", false)) {
      std::fprintf(stderr, "pvtop: daemon refused stats: %s\n",
                   reply.dump().c_str());
      rc = 2;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    const double dt =
        std::max(1e-3, std::chrono::duration<double>(now - prev_time).count());
    prev_time = now;

    // --- decode -----------------------------------------------------------
    const serve::JsonValue* srv = reply.find("server");
    const serve::JsonValue* cache = reply.find("cache");
    const serve::JsonValue* ops = reply.find("ops");

    std::vector<OpRow> rows;
    if (ops != nullptr && ops->is_object()) {
      for (const auto& [name, o] : ops->members()) {
        OpRow r;
        r.name = name;
        r.count = o.get_u64("count", 0);
        r.errors = o.get_u64("errors", 0);
        r.p50 = o.get_u64("p50_us", 0);
        r.p90 = o.get_u64("p90_us", 0);
        r.p99 = o.get_u64("p99_us", 0);
        r.p999 = o.get_u64("p999_us", 0);
        const auto it = prev_counts.find(name);
        // First frame has no baseline: report 0 qps, not lifetime/dt.
        r.qps = it == prev_counts.end()
                    ? 0.0
                    : static_cast<double>(r.count - it->second) / dt;
        prev_counts[name] = r.count;
        auto& t = trend[name];
        if (!first_frame || !t.empty()) {
          t.push_back(r.qps);
          if (t.size() > kTrendLen) t.pop_front();
        }
        rows.push_back(std::move(r));
      }
    }
    std::sort(rows.begin(), rows.end(), [](const OpRow& a, const OpRow& b) {
      return a.count != b.count ? a.count > b.count : a.name < b.name;
    });

    // --- render -----------------------------------------------------------
    std::string out;

    const std::uint64_t uptime_ms =
        srv != nullptr ? srv->get_u64("uptime_ms", 0) : 0;
    const std::uint64_t requests =
        srv != nullptr ? srv->get_u64("requests", 0) : 0;
    const std::uint64_t rej_full =
        srv != nullptr ? srv->get_u64("rejects_queue_full", 0) : 0;
    const std::uint64_t rej_dead =
        srv != nullptr ? srv->get_u64("rejects_deadline", 0) : 0;
    char head[160];
    std::snprintf(head, sizeof head,
                  "pvtop — %s:%ld   up %s   threads %llu   %llu req "
                  "(%llu rejected)\n",
                  host.c_str(), port, fmt_uptime(uptime_ms).c_str(),
                  srv != nullptr
                      ? static_cast<unsigned long long>(
                            srv->get_u64("threads", 0))
                      : 0ull,
                  static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(rej_full + rej_dead));
    out += ansi::styled(ansi::kBold, head, use_ansi);

    const std::uint64_t q_depth =
        srv != nullptr ? srv->get_u64("queue_depth", 0) : 0;
    const std::uint64_t q_cap =
        srv != nullptr ? srv->get_u64("queue_capacity", 0) : 0;
    const std::uint64_t degraded = reply.get_u64("sessions_degraded", 0);
    char sess[160];
    std::snprintf(sess, sizeof sess,
                  "sessions: %llu open / %llu opened%s   queue [%s] %llu/%llu\n",
                  static_cast<unsigned long long>(
                      reply.get_u64("sessions_open", 0)),
                  static_cast<unsigned long long>(
                      reply.get_u64("sessions_opened", 0)),
                  degraded != 0
                      ? (" / " + std::to_string(degraded) + " DEGRADED").c_str()
                      : "",
                  ansi::bar(q_cap != 0 ? static_cast<double>(q_depth) /
                                             static_cast<double>(q_cap)
                                       : 0.0,
                            8)
                      .c_str(),
                  static_cast<unsigned long long>(q_depth),
                  static_cast<unsigned long long>(q_cap));
    out += sess;

    // Overload-control line: only interesting when something was refused or
    // a brownout is active, so it appears on demand (same soft-red styling
    // as the DEGRADED marker).
    const std::uint64_t shed =
        srv != nullptr ? srv->get_u64("shed_requests", 0) : 0;
    const std::uint64_t rate_limited =
        srv != nullptr ? srv->get_u64("rate_limited", 0) : 0;
    const bool brownout =
        srv != nullptr && srv->get_bool("brownout", false);
    const std::uint64_t restarts =
        srv != nullptr ? srv->get_u64("supervisor_restarts", 0) : 0;
    if (shed != 0 || rate_limited != 0 || brownout || restarts != 0) {
      char ol[200];
      std::snprintf(ol, sizeof ol,
                    "overload: %llu shed / %llu rate-limited%s%s\n",
                    static_cast<unsigned long long>(shed),
                    static_cast<unsigned long long>(rate_limited),
                    brownout ? "   BROWNED-OUT" : "",
                    restarts != 0
                        ? ("   restarts " + std::to_string(restarts)).c_str()
                        : "");
      out += brownout ? ansi::styled(ansi::fg256(203), ol, use_ansi)
                      : std::string(ol);
    }

    if (cache != nullptr) {
      const std::uint64_t hits = cache->get_u64("hits", 0);
      const std::uint64_t misses = cache->get_u64("misses", 0);
      const double resident =
          static_cast<double>(cache->get_u64("resident_bytes", 0));
      const double budget =
          static_cast<double>(cache->get_u64("byte_budget", 0));
      char cl[200];
      std::snprintf(
          cl, sizeof cl,
          "cache: %.1f%% hit (%llu/%llu)   resident [%s] %s / %s   "
          "evictions %llu\n",
          hits + misses != 0
              ? 100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses)
              : 0.0,
          static_cast<unsigned long long>(hits),
          static_cast<unsigned long long>(hits + misses),
          ansi::bar(budget > 0 ? resident / budget : 0.0, 10).c_str(),
          fmt_mib(resident).c_str(), fmt_mib(budget).c_str(),
          static_cast<unsigned long long>(cache->get_u64("evictions", 0)));
      out += cl;
    }

    out += "\n";
    char hdr[160];
    std::snprintf(hdr, sizeof hdr, "  %-16s %8s %5s %7s %7s %7s %7s  %s\n",
                  "op", "count", "err", "qps", "p50us", "p99us", "p999us",
                  "trend");
    out += ansi::styled(ansi::kDim, hdr, use_ansi);
    for (const OpRow& r : rows) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "  %-16s %8llu %5llu %7.1f %7llu %7llu %7llu  ",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.count),
                    static_cast<unsigned long long>(r.errors), r.qps,
                    static_cast<unsigned long long>(r.p50),
                    static_cast<unsigned long long>(r.p99),
                    static_cast<unsigned long long>(r.p999));
      std::string row = line;
      const auto it = trend.find(r.name);
      if (it != trend.end())
        row += ansi::sparkline(
            std::vector<double>(it->second.begin(), it->second.end()),
            /*ascii=*/!use_ansi);
      if (r.errors != 0)
        row = ansi::styled(ansi::fg256(203), row, use_ansi);  // soft red
      out += row + "\n";
    }
    if (rows.empty()) out += "  (no requests handled yet)\n";

    // --- hot paths (continuous self-profile) ------------------------------
    if (prof.get_bool("ok", false) && prof.get_bool("enabled", false)) {
      out += "\n";
      char ph[200];
      std::snprintf(ph, sizeof ph,
                    "  hot paths — %.0f Hz   %llu samples (%llu traced)   "
                    "%llu window(s)   torn %llu\n",
                    prof.get_number("hz", 0.0),
                    static_cast<unsigned long long>(
                        prof.get_u64("samples", 0)),
                    static_cast<unsigned long long>(prof.get_u64("traced", 0)),
                    static_cast<unsigned long long>(
                        prof.get_u64("windows_written", 0)),
                    static_cast<unsigned long long>(prof.get_u64("torn", 0)));
      out += ansi::styled(ansi::kBold, ph, use_ansi);
      const serve::JsonValue* hot = prof.find("hot");
      if (hot != nullptr && hot->is_array() && !hot->items().empty()) {
        char hh[120];
        std::snprintf(hh, sizeof hh, "  %8s %7s  %-10s %s\n", "samples",
                      "traced", "share", "path");
        out += ansi::styled(ansi::kDim, hh, use_ansi);
        std::uint64_t max_samples = 1;
        for (const auto& h : hot->items())
          max_samples = std::max(max_samples, h.get_u64("samples", 0));
        for (const auto& h : hot->items()) {
          const std::uint64_t s = h.get_u64("samples", 0);
          char hl[240];
          std::snprintf(hl, sizeof hl, "  %8llu %7llu  [%s] %s\n",
                        static_cast<unsigned long long>(s),
                        static_cast<unsigned long long>(
                            h.get_u64("traced", 0)),
                        ansi::bar(static_cast<double>(s) /
                                      static_cast<double>(max_samples),
                                  8)
                            .c_str(),
                        h.get_string("path", "?").c_str());
          out += hl;
        }
      } else {
        out += "  (no samples in the current window yet)\n";
      }
    }

    last_body = out;
    if (use_ansi) std::fputs(ansi::kClearHome, stdout);
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fflush(stdout);
    first_frame = false;

    ++frame;
    if (count != 0 && frame >= count) break;
    // Sleep in short slices so Ctrl-C exits promptly.
    for (long slept = 0; slept < interval_ms && !g_stop; slept += 50)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min(50l, interval_ms - slept)));
  }

  if (use_ansi) {
    std::fputs(ansi::kShowCursor, stdout);
    std::fflush(stdout);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pathview;
  tools::Args args(argc, argv, {"once", "no-ansi"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvtop", kUsage, &exit_code))
    return exit_code;
  try {
    return run(args);
  } catch (const serve::TransportError& e) {
    std::fprintf(stderr, "pvtop: transport error: %s\n", e.what());
    return 3;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "pvtop: protocol error: %s\n", e.what());
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "pvtop: %s\n", e.what());
    return 1;
  }
}
