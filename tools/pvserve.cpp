// pvserve — the profile query server.
//
// Daemon mode serves experiment databases over a framed JSON protocol on
// localhost; any number of viewer clients share one in-memory copy of each
// database and navigate it through session-scoped lazy cursors (open /
// expand / sort / hot_path / timeline_window / ...), so interaction cost is
// proportional to the rows on screen, never to profile size.
//
// Client mode (`pvserve --client`) sends requests to a running daemon and
// prints one JSON reply per line — the scripting surface used by the e2e
// tests and scripts/check.sh.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <poll.h>
#include <string>
#include <thread>
#include <unistd.h>

#include "pathview/serve/client.hpp"
#include "pathview/serve/server.hpp"
#include "pathview/serve/supervisor.hpp"
#include "tool_util.hpp"

namespace {

const std::string kUsage = R"(pvserve - profile query server

usage:
  pvserve [flags]                     run the daemon (prints the bound port)
  pvserve --supervise [flags]         run the daemon under a crash supervisor
  pvserve --client --port N [flags]   send requests to a running daemon

daemon flags:
  --port N           listen port (default 0 = pick an ephemeral port)
  --host ADDR        listen address (default 127.0.0.1)
  --threads N        worker threads (0 = all hardware threads)
  --queue N          request queue capacity (default 128)
  --deadline-ms N    per-request queue deadline (default 10000)
  --idle-timeout-ms N  close connections idle this long (default 0 = never)
  --cache-mb N       experiment cache byte budget in MiB (default 256)
  --max-sessions N   concurrent session limit (default 256)
  --view V           view new sessions start in when the open request
                     does not name one: cct | callers | flat (default cct)
  --log-format F     per-request structured log: text | json (default off)
  --log-file PATH    log sink (default stderr; appends)
  --slow-ms N        log requests slower than this at "warn" (default 250)
  --metrics-file P   write Prometheus text-format metric snapshots to P
                     (atomically replaced) every --metrics-interval-ms
  --metrics-interval-ms N  snapshot cadence (default 1000)
  --self-profile-hz N  continuous profiler sampling rate (default 97;
                     0 disables the sampler entirely)
  --self-profile-interval-ms N  wall time per emitted profile window
                     (default 60000)
  --self-profile-dir D  retention ring for window experiments
                     (D/window-NNNNNN.pvdb); default "" = fold in memory
                     only, write nothing
  --self-profile-retain N  window files kept before the oldest is deleted
                     (default 16)
  --read-deadline-ms N  slowloris guard: a started frame must finish within
                     this bound or the connection drops (default 30000;
                     0 disables)
  --health-file P    atomically write {"state": "serving"|"browned-out"|
                     "draining", ...} liveness snapshots to P
  --health-interval-ms N  health/brownout control-loop cadence (default 500)
  --session-dir D    journal session cursors into D so `resume_session`
                     survives a daemon restart (default off)
  --rate-limit-rps N   per-peer token refill rate (default 0 = off)
  --rate-limit-burst N bucket capacity (default 2x the rate)

supervisor flags (with --supervise; all daemon flags apply to the worker):
  --max-restarts N   crash-loop breaker: give up after N abnormal exits in
                     60s (default 8; 0 = respawn forever)
  --restart-backoff-ms N  first respawn delay, doubles up to 5000ms
                     (default 100)

client flags:
  --port N           daemon port (required)
  --host ADDR        daemon address (default 127.0.0.1)
  --trace-id T       stamp this correlation id on every request that does
                     not carry its own "trace_id" field
  --request JSON     send one request and print the reply; without it,
                     each non-empty stdin line is sent as a request and
                     every reply is printed on its own line
  --retries N        attempts per request when the daemon answers with a
                     retry_after_ms backpressure hint (default 5)
  --backoff-ms N     backoff cap for those retries (default 2000)
  --deadline-ms N    per-request wall-clock budget, attempts + backoff
                     (default 0 = none)
  --auto-resume      survive daemon restarts: reconnect with backoff,
                     resume_session every open session, re-send the
                     interrupted request (at-least-once)

client exit codes: 0 ok; 2 protocol error (the daemon refused the request
or replied unusably); 3 transport error (could not connect, connection
torn). See docs/serving.md.

protocol: 4-byte big-endian length prefix + JSON. See docs/serving.md.
)";

// Signal handling via self-pipe: the handler only writes a byte; a watcher
// thread turns it into Server::request_stop().
int g_sig_pipe[2] = {-1, -1};

void on_signal(int) {
  const char b = 's';
  [[maybe_unused]] ssize_t r = ::write(g_sig_pipe[1], &b, 1);
}

// Client exit codes (documented in docs/serving.md and asserted by the e2e
// tests): 0 = every reply was ok:true; 2 = protocol-level failure (a final
// ok:false reply, or an unusable reply); 3 = transport-level failure.
constexpr int kExitOk = 0;
constexpr int kExitProtocol = 2;
constexpr int kExitTransport = 3;

int run_client(const pathview::tools::Args& args) {
  using namespace pathview;
  const long port = args.flag("port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "pvserve: --client needs --port N\n");
    return kExitProtocol;
  }
  const std::string host = args.flag_str("host", "127.0.0.1");
  serve::RetryOptions retry;
  retry.max_attempts =
      static_cast<std::uint32_t>(std::max(1l, args.flag("retries", 5)));
  retry.max_backoff_ms =
      static_cast<std::uint32_t>(std::max(1l, args.flag("backoff-ms", 2000)));
  retry.deadline_ms =
      static_cast<std::uint32_t>(std::max(0l, args.flag("deadline-ms", 0)));
  retry.auto_resume = args.has("auto-resume");

  int rc = kExitOk;
  try {
    serve::Client client(host, static_cast<std::uint16_t>(port), retry);
    client.set_trace_id(
        static_cast<std::uint64_t>(std::max(0l, args.flag("trace-id", 0))));
    const auto roundtrip = [&](const std::string& req) {
      serve::JsonValue parsed;
      try {
        parsed = serve::JsonValue::parse(req);
      } catch (const Error& e) {
        throw serve::ProtocolError(std::string("bad request JSON: ") +
                                   e.what());
      }
      const serve::JsonValue reply = client.call(std::move(parsed));
      const std::string line = reply.dump();
      std::fwrite(line.data(), 1, line.size(), stdout);
      std::fputc('\n', stdout);
      // A final refusal is still exit 2, even though the reply printed.
      if (!reply.get_bool("ok", false)) rc = kExitProtocol;
    };
    if (args.has("request")) {
      roundtrip(args.flag_str("request", ""));
    } else {
      std::string line;
      while (std::getline(std::cin, line)) {
        if (line.empty()) continue;
        roundtrip(line);
      }
    }
  } catch (const serve::TransportError& e) {
    std::fprintf(stderr, "pvserve: transport error: %s\n", e.what());
    rc = kExitTransport;
  } catch (const serve::ProtocolError& e) {
    std::fprintf(stderr, "pvserve: protocol error: %s\n", e.what());
    rc = kExitProtocol;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvserve: %s\n", e.what());
    rc = kExitProtocol;
  }
  std::fflush(stdout);
  return rc;
}

int run_daemon(const pathview::tools::Args& args,
               pathview::tools::ObsSession& obs_session,
               long port_override = -1) {
  using namespace pathview;
  serve::Server::Options opts;
  opts.host = args.flag_str("host", "127.0.0.1");
  const long port = port_override >= 0 ? port_override : args.flag("port", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "pvserve: bad --port %ld\n", port);
    return 2;
  }
  opts.port = static_cast<std::uint16_t>(port);
  opts.threads = tools::thread_count(args);
  opts.queue_capacity = static_cast<std::size_t>(args.flag("queue", 128));
  opts.deadline_ms =
      static_cast<std::uint32_t>(args.flag("deadline-ms", 10000));
  opts.retry_after_ms =
      static_cast<std::uint32_t>(args.flag("retry-after-ms", 50));
  opts.idle_timeout_ms =
      static_cast<std::uint32_t>(args.flag("idle-timeout-ms", 0));
  opts.sessions.cache.byte_budget =
      static_cast<std::size_t>(args.flag("cache-mb", 256)) << 20;
  opts.sessions.max_sessions =
      static_cast<std::size_t>(args.flag("max-sessions", 256));
  opts.sessions.default_view =
      serve::parse_view_name(args.flag_str("view", "cct"));
  opts.log_format = args.flag_str("log-format", "");
  if (!opts.log_format.empty() && opts.log_format != "text" &&
      opts.log_format != "json") {
    std::fprintf(stderr, "pvserve: bad --log-format \"%s\" (text|json)\n",
                 opts.log_format.c_str());
    return 2;
  }
  opts.log_file = args.flag_str("log-file", "");
  opts.slow_ms = static_cast<std::uint32_t>(args.flag("slow-ms", 250));
  opts.metrics_file = args.flag_str("metrics-file", "");
  opts.metrics_interval_ms =
      static_cast<std::uint32_t>(args.flag("metrics-interval-ms", 1000));
  opts.self_profile_hz =
      static_cast<double>(args.flag("self-profile-hz", 97));
  opts.self_profile_interval_ms = static_cast<std::uint64_t>(
      std::max(1l, args.flag("self-profile-interval-ms", 60000)));
  opts.self_profile_dir = args.flag_str("self-profile-dir", "");
  opts.self_profile_retain = static_cast<std::size_t>(
      std::max(1l, args.flag("self-profile-retain", 16)));
  opts.read_deadline_ms = static_cast<std::uint32_t>(
      std::max(0l, args.flag("read-deadline-ms", 30000)));
  opts.health_file = args.flag_str("health-file", "");
  opts.health_interval_ms = static_cast<std::uint32_t>(
      std::max(50l, args.flag("health-interval-ms", 500)));
  opts.sessions.session_dir = args.flag_str("session-dir", "");
  opts.overload.rate_limit_rps =
      static_cast<double>(std::max(0l, args.flag("rate-limit-rps", 0)));
  opts.overload.rate_limit_burst =
      static_cast<double>(std::max(0l, args.flag("rate-limit-burst", 0)));
  if (const char* env = std::getenv(serve::kSupervisorRestartsEnv))
    opts.supervisor_restarts =
        static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));

  serve::Server server(opts);
  server.start();
  // The line clients and tests parse to discover an ephemeral port.
  std::printf("pvserve: listening on %s:%u (threads=%zu queue=%zu)\n",
              server.options().host.c_str(), server.port(),
              server.options().threads, server.options().queue_capacity);
  std::fflush(stdout);

  if (::pipe(g_sig_pipe) != 0) {
    std::fprintf(stderr, "pvserve: pipe() failed\n");
    server.stop();
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::thread watcher([&server] {
    char b;
    while (::read(g_sig_pipe[0], &b, 1) < 0 && errno == EINTR) {
    }
    server.request_stop();
  });

  server.wait();  // returns after a signal or a "shutdown" request

  // Unblock the watcher if shutdown came from the protocol, not a signal.
  std::signal(SIGTERM, SIG_IGN);
  std::signal(SIGINT, SIG_IGN);
  const char b = 'q';
  [[maybe_unused]] ssize_t r = ::write(g_sig_pipe[1], &b, 1);
  watcher.join();
  ::close(g_sig_pipe[0]);
  ::close(g_sig_pipe[1]);

  const std::size_t open = server.sessions().open_sessions();
  std::printf(
      "pvserve: shutdown, %zu session(s) open, %llu request(s) served, "
      "%llu overload reject(s)\n",
      open,
      static_cast<unsigned long long>(server.requests_handled()),
      static_cast<unsigned long long>(server.queue_full_rejects()));
  std::fflush(stdout);
  server.sessions().close_all();
  obs_session.finish();
  return 0;
}

int run_supervised(const pathview::tools::Args& args) {
  using namespace pathview;
  const std::string host = args.flag_str("host", "127.0.0.1");
  long port = args.flag("port", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "pvserve: bad --port %ld\n", port);
    return 2;
  }
  // A respawned worker must come back on the SAME port its clients know, so
  // an ephemeral request is resolved once, up front, and pinned.
  if (port == 0) port = serve::reserve_ephemeral_port(host);

  serve::SupervisorOptions sopts;
  sopts.max_restarts = static_cast<std::uint32_t>(
      std::max(0l, args.flag("max-restarts", 8)));
  sopts.backoff_ms = static_cast<std::uint32_t>(
      std::max(1l, args.flag("restart-backoff-ms", 100)));
  sopts.health_file = args.flag_str("health-file", "");
  std::printf("pvserve: supervising %s:%ld (max-restarts=%u)\n", host.c_str(),
              port, sopts.max_restarts);
  std::fflush(stdout);
  serve::Supervisor supervisor(sopts);
  // The worker closure runs in a fresh fork each incarnation; it builds its
  // own ObsSession so per-incarnation telemetry starts clean.
  return supervisor.run([&args, port]() -> int {
    tools::ObsSession obs_session(args, "pvserve");
    return run_daemon(args, obs_session, port);
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pathview;
  tools::Args args(argc, argv, {"auto-resume", "client", "supervise"});
  int exit_code = 0;
  if (tools::handle_common_flags(args, "pvserve", kUsage, &exit_code))
    return exit_code;
  try {
    if (args.has("client")) return run_client(args);
    if (args.has("supervise")) return run_supervised(args);
    tools::ObsSession obs_session(args, "pvserve");
    return run_daemon(args, obs_session);
  } catch (const Error& e) {
    std::fprintf(stderr, "pvserve: %s\n", e.what());
    return 1;
  }
}
