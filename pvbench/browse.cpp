// browse: the divergent 111k-node PVDB2 behind an in-process serve::Server
// with its shipping defaults (97 Hz self-profiler included), 4 worker
// threads, and 4 client connections driven from this one thread, each
// holding one session on a different view (CCT, Callers, Flat, CCT).
//
// The seeded task mix per connection: sort on a column; drill down up to 6
// levels, expanding a seeded expandable child from each reply; hot_path;
// collapse; one of 4 fixed queries; flatten + unflatten on the Flat
// session. A closed-loop warm-up pass records every request and reply;
// each later phase reopens fresh sessions and replays the recording, and
// every reply must be byte-identical to the recorded one:
//   light     open loop at kLightRps, latency timed from each request's due
//             time (so a stall charges every request queued behind it)
//   busy      the same at kBusyRps
//   saturate  closed loop, one outstanding request per connection
// Opens are timed apart from the replays: an open costs tens of ms and
// would stall every request pipelined behind it on its connection.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pathview/core/flatten.hpp"
#include "pathview/core/sort.hpp"
#include "pathview/db/experiment.hpp"
#include "pathview/metrics/attribution.hpp"
#include "pathview/prof/pipeline.hpp"
#include "pathview/query/plan.hpp"
#include "pathview/serve/json.hpp"
#include "pathview/serve/protocol.hpp"
#include "pathview/serve/server.hpp"
#include "pathview/support/error.hpp"
#include "pathview/support/prng.hpp"
#include "pathview/ui/controller.hpp"
#include "workloads.hpp"

namespace pvbench {

namespace pv = pathview;
using pv::serve::JsonValue;

namespace {

// Fixed open-loop rates over all four connections, about 30% and 60% of
// the closed-loop throughput at seed 7 on a 4-core x86-64 machine. They are
// constants so that a slower build meets the same offered load and shows
// it as latency.
constexpr double kLightRps = 1800;
constexpr double kBusyRps = 3600;

constexpr std::size_t kConns = 4;
constexpr const char* kViews[kConns] = {"cct", "callers", "flat", "cct"};
constexpr std::size_t kOpensPerBatch = 4;
constexpr const char* kQueries[] = {
    "match '**' where cycles.incl > 0.01*total "
    "order by cycles.excl desc limit 20",
    "match '**/p1*' order by cycles.incl desc limit 10",
    "where flops.excl > 0.001*total order by flops.excl desc limit 20",
    "select count(*), sum(cycles.excl) where cycles.excl > 0",
};
constexpr const char* kSessionSlot = "\"session\":\"@\"";

std::string roundtrip(int fd, const std::string& payload) {
  pv::serve::write_frame(fd, payload);
  std::string reply;
  if (!pv::serve::read_frame(fd, &reply))
    throw pv::Error("server closed the connection");
  return reply;
}

std::string request(std::uint64_t id, const std::string& op,
                    JsonValue body = JsonValue::object()) {
  JsonValue r = JsonValue::object();
  r.set("v", JsonValue::number(std::uint64_t{1}));
  r.set("id", JsonValue::number(id));
  r.set("op", JsonValue::string(op));
  for (const auto& [k, v] : body.members()) r.set(k, v);
  return r.dump();
}

/// Open a session over `path`; returns its id. `ms` receives the round trip.
std::string open_session(int fd, const std::string& path, const char* view,
                         double* ms) {
  JsonValue body = JsonValue::object();
  body.set("path", JsonValue::string(path));
  body.set("view", JsonValue::string(view));
  const Clock::time_point t0 = Clock::now();
  const JsonValue reply = JsonValue::parse(roundtrip(fd, request(0, "open", body)));
  if (ms) *ms = ms_since(t0);
  if (!reply.get_bool("ok", false))
    throw pv::Error("open failed: " + reply.dump());
  return reply.get_string("session", "");
}

void close_session(int fd, const std::string& sid) {
  JsonValue body = JsonValue::object();
  body.set("session", JsonValue::string(sid));
  roundtrip(fd, request(0, "close", body));
}

/// The seeded task mix of one connection. Drill-down picks children from
/// the previous reply, so the script is generated against live replies.
/// The seed picks columns, sort order and nodes; drill depth and query
/// text cycle, so that every seed sends the same mix of operations.
class TaskGen {
 public:
  TaskGen(std::uint64_t seed, bool flat, std::size_t ncols)
      : rng_(seed), flat_(flat), ncols_(ncols) {}

  /// The next request (op, params) given the previous reply.
  std::pair<std::string, JsonValue> next(const JsonValue* last) {
    JsonValue body = JsonValue::object();
    for (;;) {
      switch (stage_) {
        case kSort:
          col_ = rng_.next_below(ncols_);
          body.set("column", JsonValue::number(col_));
          body.set("descending", JsonValue::boolean(rng_.next_bool(0.8)));
          stage_ = kDrill;
          depth_ = 0;
          target_depth_ = 1 + static_cast<int>(round_ % 6);
          top_ = 0;
          return {"sort", body};
        case kDrill: {
          std::vector<std::uint64_t> expandable;
          const JsonValue* rows = last ? last->find("rows") : nullptr;
          if (rows && rows->is_array())
            for (const JsonValue& r : rows->items())
              if (r.get_bool("expandable", false))
                expandable.push_back(r.get_u64("id", 0));
          if (depth_ >= target_depth_ || expandable.empty()) {
            stage_ = kHotPath;
            continue;
          }
          const std::uint64_t node = expandable[rng_.next_below(expandable.size())];
          if (depth_++ == 0) top_ = node;
          body.set("node", JsonValue::number(node));
          return {"expand", body};
        }
        case kHotPath:
          body.set("start", JsonValue::number(top_));
          body.set("column", JsonValue::number(col_));
          stage_ = top_ ? kCollapse : kQuery;
          return {"hot_path", body};
        case kCollapse:
          body.set("node", JsonValue::number(top_));
          stage_ = kQuery;
          return {"collapse", body};
        case kQuery:
          body.set("q", JsonValue::string(kQueries[round_ % std::size(kQueries)]));
          ++round_;
          stage_ = flat_ ? kFlatten : kSort;
          return {"query", body};
        case kFlatten:
          stage_ = kUnflatten;
          return {"flatten", body};
        case kUnflatten:
          stage_ = kSort;
          return {"unflatten", body};
      }
    }
  }

 private:
  enum Stage { kSort, kDrill, kHotPath, kCollapse, kQuery, kFlatten, kUnflatten };
  pv::Prng rng_;
  bool flat_;
  std::size_t ncols_;
  Stage stage_ = kSort;
  std::uint64_t round_ = 0;
  int depth_ = 0;
  int target_depth_ = 0;
  std::uint64_t top_ = 0;
  std::uint64_t col_ = 0;
};

/// One connection's recorded script: requests (with the session slot
/// unfilled), their op names and the recorded replies.
struct Script {
  std::vector<std::string> requests;
  std::vector<std::string> ops;
  std::vector<std::string> replies;
};

/// One client connection with non-blocking buffered I/O; owns its socket.
struct Wire {
  struct Pending {
    std::size_t index;
    Clock::time_point due;
  };
  int fd = -1;
  std::string in, out;
  std::deque<Pending> pending;

  Wire() = default;
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;
  ~Wire() {
    if (fd >= 0) ::close(fd);
  }

  void send(const std::string& frame) {
    out += frame;
    flush();
  }
  void flush() {
    while (!out.empty()) {
      const ssize_t n = ::send(fd, out.data(), out.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        throw pv::Error("send failed");
      }
      out.erase(0, static_cast<std::size_t>(n));
    }
  }
  /// Read what has arrived; call `fn(payload)` per complete frame.
  template <class Fn>
  void receive(Fn&& fn) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) throw pv::Error("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw pv::Error("recv failed");
      }
      in.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t off = 0;
    while (in.size() - off >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(in.data() + off);
      const std::size_t len = (std::size_t{p[0]} << 24) | (std::size_t{p[1]} << 16) |
                              (std::size_t{p[2]} << 8) | std::size_t{p[3]};
      if (in.size() - off - 4 < len) break;
      fn(std::string_view(in.data() + off + 4, len));
      off += 4 + len;
    }
    in.erase(0, off);
  }
};

/// Block until a wire is readable (or writable with queued output), or
/// until `until`.
void wait(std::vector<Wire>& ws, Clock::time_point until) {
  pollfd fds[kConns];
  for (std::size_t c = 0; c < ws.size(); ++c)
    fds[c] = {ws[c].fd,
              static_cast<short>(POLLIN | (ws[c].out.empty() ? 0 : POLLOUT)), 0};
  const auto left = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(until - Clock::now())
             .count());
  const timespec ts{static_cast<time_t>(left / 1000000000),
                    static_cast<long>(left % 1000000000)};
  ::ppoll(fds, ws.size(), &ts, nullptr);
  for (std::size_t c = 0; c < ws.size(); ++c)
    if (fds[c].revents & POLLOUT) ws[c].flush();
}

struct PhaseStats {
  std::vector<double> latency_ms;  // failed requests read +inf
  std::map<std::string, std::vector<double>> rtt_us;
  std::vector<double> late_ms;
  double reply_bytes = 0;
  std::uint64_t requests = 0;
  std::uint64_t mismatches = 0;
  double seconds = 0;
};

/// What one phase replays: per connection, the framed requests (session
/// slot filled in) and the replies they must produce.
struct Replay {
  std::vector<std::vector<std::string>> frames;
  const std::vector<Script>* scripts = nullptr;

  std::size_t length() const {
    std::size_t n = frames[0].size();
    for (const auto& f : frames) n = std::min(n, f.size());
    return n;
  }
};

Replay make_replay(const std::vector<Script>& scripts,
                   const std::vector<std::string>& sids,
                   std::uint64_t trace_base) {
  Replay r;
  r.scripts = &scripts;
  r.frames.resize(scripts.size());
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    const std::string slot = "\"session\":\"" + sids[c] + "\"";
    for (std::size_t i = 0; i < scripts[c].requests.size(); ++i) {
      std::string req = scripts[c].requests[i];
      req.replace(req.find(kSessionSlot), std::string_view(kSessionSlot).size(),
                  slot);
      if (trace_base) {
        // Each request carries its own trace id: server spans of one
        // request share it.
        req.insert(req.size() - 1,
                   ",\"trace_id\":" +
                       std::to_string(trace_base + c * 1000000 + i));
      }
      r.frames[c].push_back(pv::serve::encode_frame(req));
    }
  }
  return r;
}

void record_reply(PhaseStats& st, const Replay& rp, std::size_t c,
                  std::size_t i, std::string_view payload, double ms) {
  const Script& s = (*rp.scripts)[c];
  st.reply_bytes += static_cast<double>(payload.size());
  if (payload != s.replies[i]) {
    ++st.mismatches;
    st.latency_ms.push_back(INFINITY);
    return;
  }
  st.latency_ms.push_back(ms);
  st.rtt_us[s.ops[i]].push_back(ms * 1e3);
}

/// Open loop: request k is due at t0 + k / rps, on connection k % 4.
PhaseStats open_loop(std::vector<Wire>& ws, const Replay& rp, double rps,
                     std::size_t total) {
  PhaseStats st;
  total = std::min(total, rp.length() * ws.size());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t k) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(static_cast<double>(k) / rps * 1e9));
  };
  const Clock::time_point hard_stop =
      due(total) + std::chrono::seconds(30);
  std::size_t next = 0, done = 0;
  while (done < total) {
    Clock::time_point now = Clock::now();
    while (next < total && due(next) <= now) {
      const std::size_t c = next % ws.size(), i = next / ws.size();
      st.late_ms.push_back(
          std::chrono::duration<double, std::milli>(now - due(next)).count());
      ws[c].pending.push_back({i, due(next)});
      ws[c].send(rp.frames[c][i]);
      ++next;
      now = Clock::now();
    }
    wait(ws, next < total ? due(next) : now + std::chrono::milliseconds(50));
    const Clock::time_point arrived = Clock::now();
    for (std::size_t c = 0; c < ws.size(); ++c) {
      ws[c].receive([&](std::string_view payload) {
        const Wire::Pending p = ws[c].pending.front();
        ws[c].pending.pop_front();
        record_reply(st, rp, c, p.index, payload,
                     std::chrono::duration<double, std::milli>(arrived - p.due)
                         .count());
        ++done;
      });
    }
    if (arrived > hard_stop) throw pv::Error("open-loop phase stalled");
  }
  st.requests = total;
  st.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return st;
}

/// Closed loop: each connection sends its next request when the previous
/// reply arrives. `next(c, reply)` yields the next frame (or nothing);
/// `on_reply(c, index, payload, rtt_ms)` sees every reply.
PhaseStats closed_loop(
    std::vector<Wire>& ws,
    const std::function<std::optional<std::string>(std::size_t,
                                                   std::string_view)>& next,
    const std::function<void(PhaseStats&, std::size_t, std::size_t,
                             std::string_view, double)>& on_reply,
    Clock::time_point deadline) {
  PhaseStats st;
  const Clock::time_point t0 = Clock::now();
  std::vector<std::size_t> sent(ws.size(), 0);
  const auto send_next = [&](std::size_t c, std::string_view reply) {
    if (Clock::now() >= deadline) return;
    if (std::optional<std::string> f = next(c, reply)) {
      ws[c].pending.push_back({sent[c]++, Clock::now()});
      ws[c].send(*f);
    }
  };
  for (std::size_t c = 0; c < ws.size(); ++c) send_next(c, {});
  const Clock::time_point hard_stop = deadline + std::chrono::seconds(30);
  for (;;) {
    bool busy = false;
    for (const Wire& w : ws) busy |= !w.pending.empty();
    if (!busy) break;
    if (Clock::now() > hard_stop) throw pv::Error("closed loop stalled");
    wait(ws, Clock::now() + std::chrono::milliseconds(50));
    const Clock::time_point arrived = Clock::now();
    for (std::size_t c = 0; c < ws.size(); ++c) {
      ws[c].receive([&](std::string_view payload) {
        const Wire::Pending p = ws[c].pending.front();
        ws[c].pending.pop_front();
        ++st.requests;
        on_reply(st, c, p.index, payload,
                 std::chrono::duration<double, std::milli>(arrived - p.due)
                     .count());
        send_next(c, payload);
      });
    }
  }
  st.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return st;
}

/// One session's state replayed in-process through ui::ViewerController,
/// mirroring what the server's session does for each op.
struct Mirror {
  Mirror(const pv::db::Experiment& exp, pv::core::ViewType view) {
    {
      PV_SPAN("bench.metrics.attribute");
      attr = pv::metrics::attribute_metrics(exp.cct(), pv::metrics::all_events());
    }
    PV_SPAN("bench.ui.controller");
    ctl = std::make_unique<pv::ui::ViewerController>(exp.cct(), attr);
    ctl->select_view(view);
  }
  // The controller refers to `attr`.
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  pv::metrics::Attribution attr;
  std::unique_ptr<pv::ui::ViewerController> ctl;
  std::optional<pv::metrics::ColumnId> sort_col;
  bool desc = true;
  std::unique_ptr<pv::core::FlattenState> flat;
};

std::vector<std::uint64_t> ids_of(const JsonValue* rows, const char* key) {
  std::vector<std::uint64_t> ids;
  if (rows && rows->is_array())
    for (const JsonValue& r : rows->items())
      ids.push_back(r.is_number() ? static_cast<std::uint64_t>(r.as_number())
                                  : r.get_u64(key, 0));
  return ids;
}

template <class Ids>
bool same_ids(const Ids& got, const std::vector<std::uint64_t>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (got[i] != want[i]) return false;
  return true;
}

/// Apply one recorded request in-process; false when its result disagrees
/// with the recorded server reply.
bool mirror_step(Mirror& m, const pv::db::Experiment& exp,
                 const JsonValue& req, const JsonValue& reply,
                 double* rows_expanded) {
  const std::string op = req.get_string("op", "");
  pv::core::View& view = m.ctl->current();
  if (op == "expand") {
    const auto id = static_cast<pv::core::ViewNodeId>(req.get_u64("node", 0));
    const std::vector<pv::core::ViewNodeId>* kids = nullptr;
    {
      PV_SPAN("bench.core.expand");
      m.ctl->expand(id);
      if (m.sort_col)
        pv::core::sort_children_by(view, id, *m.sort_col, m.desc);
      kids = &view.children_of(id);
    }
    *rows_expanded += static_cast<double>(kids->size());
    return same_ids(*kids, ids_of(reply.find("rows"), "id"));
  }
  if (op == "collapse") {
    PV_SPAN("bench.core.collapse");
    m.ctl->collapse(static_cast<pv::core::ViewNodeId>(req.get_u64("node", 0)));
    return true;
  }
  if (op == "sort") {
    const auto col = static_cast<pv::metrics::ColumnId>(req.get_u64("column", 0));
    const bool desc = req.get_bool("descending", true);
    {
      PV_SPAN("bench.core.sort");
      m.sort_col = col;
      m.desc = desc;
      m.ctl->sort_by(col, desc);
      pv::core::sort_built_by(view, col, desc);
    }
    return same_ids(view.children_of(pv::core::kViewRoot),
                    ids_of(reply.find("rows"), "id"));
  }
  if (op == "flatten" || op == "unflatten") {
    {
      PV_SPAN("bench.core.flatten");
      if (!m.flat) m.flat = std::make_unique<pv::core::FlattenState>(view);
      if (op == "flatten")
        m.flat->flatten();
      else
        m.flat->unflatten();
    }
    return same_ids(m.flat->roots(), ids_of(reply.find("rows"), "id"));
  }
  if (op == "hot_path") {
    std::vector<pv::core::ViewNodeId> path;
    {
      PV_SPAN("bench.core.hot_path");
      path = m.ctl->run_hot_path(
          static_cast<pv::core::ViewNodeId>(req.get_u64("start", 0)),
          static_cast<pv::metrics::ColumnId>(req.get_u64("column", 0)));
    }
    return same_ids(path, ids_of(reply.find("path"), "id"));
  }
  if (op == "query") {
    const std::string text = req.get_string("q", "");
    pv::query::Query q;
    {
      PV_SPAN("bench.query.parse");
      q = pv::query::parse(text);
    }
    std::optional<pv::query::Plan> plan;
    {
      PV_SPAN("bench.query.compile");
      plan = pv::query::compile(std::move(q), exp.cct(), m.attr.table);
    }
    pv::query::QueryResult res;
    {
      PV_SPAN("bench.query.execute");
      res = plan->execute();
    }
    const JsonValue* result = reply.find("result");
    std::vector<std::uint64_t> nodes;
    for (const pv::query::ResultRow& r : res.rows) nodes.push_back(r.node);
    PV_COUNTER_ADD("bench.query.rows_scanned", res.stats.rows_scanned);
    PV_COUNTER_ADD("bench.query.rows_matched", res.stats.rows_matched);
    return result && same_ids(nodes, ids_of(result->find("rows"), "node"));
  }
  return false;
}

}  // namespace

void run_browse(const Config& cfg, Run& run) {
  const Sizes& sz = cfg.sizes;
  const std::string db_path = cfg.workdir + "/browse.pvdb";

  // --- set-up: the 64-rank divergent experiment ----------------------------
  std::vector<double> setup_s, sim_ms;
  for (int s = 0; s < sz.setups; ++s) {
    const Clock::time_point t0 = Clock::now();
    const pv::workloads::Workload w = make_program(Shape::kDivergent);
    const Clock::time_point t_sim = Clock::now();
    const std::vector<pv::sim::RawProfile> raws =
        simulate(w, sz.ranks, w.run.seed, cfg.seed, /*stream=*/0);
    sim_ms.push_back(ms_since(t_sim));
    pv::prof::PipelineOptions popts;
    popts.nthreads = kThreads;
    const pv::prof::CanonicalCct cct =
        pv::prof::Pipeline(popts).run(raws, *w.tree);
    pv::db::save_binary(
        pv::db::Experiment::capture(*w.tree, cct, "browse", sz.ranks), db_path);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  run.metric("setup_s", setup_s);
  run.metric("sim.run_parallel_ms", sim_ms);

  // Phase lengths: light and busy get 30% of the run each, saturation at
  // most 20%; opens and the recording pass take the rest.
  const double phase_s = cfg.smoke ? 1.0 : 0.3 * cfg.seconds;
  const double sat_s = cfg.smoke ? 1.0 : 0.2 * cfg.seconds;
  const std::size_t light_total = static_cast<std::size_t>(kLightRps * phase_s);
  const std::size_t busy_total = static_cast<std::size_t>(kBusyRps * phase_s);
  const std::size_t per_conn = busy_total / kConns + 1;

  pv::serve::Server::Options sopts;
  sopts.threads = kThreads;
  pv::serve::Server server(sopts);
  server.start();
  std::vector<Wire> ws(kConns);
  for (Wire& w : ws) w.fd = pv::serve::connect_to("127.0.0.1", server.port());

  // Opens are timed in batches between the phases, so that they sample
  // the whole run: a cold open follows a drop of the server's experiment
  // cache (read + decode + attribution + session), a warm one reuses the
  // experiment the cold one cached.
  std::vector<double> cold_ms, warm_ms;
  const auto time_opens = [&] {
    for (std::size_t i = 0; i < kOpensPerBatch; ++i) {
      server.sessions().cache().clear();
      double ms = 0;
      close_session(ws[0].fd, open_session(ws[0].fd, db_path, "cct", &ms));
      cold_ms.push_back(ms);
      close_session(ws[0].fd, open_session(ws[0].fd, db_path, "cct", &ms));
      warm_ms.push_back(ms);
    }
    run.attempted(2 * kOpensPerBatch);
  };
  time_opens();

  const auto open_all = [&] {
    std::vector<std::string> sids;
    for (std::size_t c = 0; c < kConns; ++c)
      sids.push_back(open_session(ws[c].fd, db_path, kViews[c], nullptr));
    run.attempted(kConns);
    return sids;
  };
  const auto close_sids = [&](const std::vector<std::string>& sids) {
    for (std::size_t c = 0; c < kConns; ++c) close_session(ws[c].fd, sids[c]);
  };

  // --- recording: closed loop, the seeded mix generated against replies --
  std::vector<Script> scripts(kConns);
  {
    const std::vector<std::string> sids = open_all();
    std::vector<TaskGen> gens;
    for (std::size_t c = 0; c < kConns; ++c) {
      std::uint64_t s = cfg.seed * 0x9e3779b97f4a7c15ULL + c;
      gens.emplace_back(pv::splitmix64(s), std::string(kViews[c]) == "flat",
                        /*ncols=*/12);
    }
    std::uint64_t failures = 0;
    closed_loop(
        ws,
        [&](std::size_t c, std::string_view reply) -> std::optional<std::string> {
          Script& sc = scripts[c];
          if (sc.requests.size() >= per_conn) return std::nullopt;
          std::optional<JsonValue> last;
          if (!reply.empty()) last = JsonValue::parse(reply);
          auto [op, body] = gens[c].next(last ? &*last : nullptr);
          body.set("session", JsonValue::string("@"));
          std::string req = request(sc.requests.size() + 1, op, body);
          sc.ops.push_back(op);
          std::string framed = req;
          framed.replace(framed.find(kSessionSlot),
                         std::string_view(kSessionSlot).size(),
                         "\"session\":\"" + sids[c] + "\"");
          sc.requests.push_back(std::move(req));
          return pv::serve::encode_frame(framed);
        },
        [&](PhaseStats&, std::size_t c, std::size_t, std::string_view payload,
            double) {
          if (payload.find("\"ok\":true") == std::string_view::npos) ++failures;
          scripts[c].replies.emplace_back(payload);
        },
        Clock::now() + std::chrono::seconds(cfg.smoke ? 5 : 30));
    close_sids(sids);
    std::uint64_t recorded = 0;
    for (const Script& s : scripts) recorded += s.replies.size();
    for (Script& s : scripts) {
      s.requests.resize(s.replies.size());
      s.ops.resize(s.replies.size());
    }
    run.attempted(recorded);
    run.failed(failures);
    run.check(failures == 0, std::to_string(failures) +
                                 " request(s) of the recorded mix failed");
  }
  time_opens();

  std::uint64_t mismatches = 0;
  const auto replay_phase = [&](auto&& body, std::uint64_t trace_base) {
    const std::vector<std::string> sids = open_all();
    const Replay rp = make_replay(scripts, sids, trace_base);
    PhaseStats st = body(rp);
    mismatches += st.mismatches;
    run.attempted(st.requests);
    close_sids(sids);
    return st;
  };
  const auto saturate = [&](const Replay& rp, double seconds) {
    std::vector<std::size_t> next(kConns, 0);
    return closed_loop(
        ws,
        [&](std::size_t c, std::string_view) -> std::optional<std::string> {
          if (next[c] >= rp.frames[c].size()) return std::nullopt;
          return rp.frames[c][next[c]++];
        },
        [&](PhaseStats& st, std::size_t c, std::size_t i,
            std::string_view payload, double ms) {
          record_reply(st, rp, c, i, payload, ms);
        },
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds)));
  };

  // --- light: open loop; the server's own per-op histograms cover it -----
  JsonValue light_server;
  const PhaseStats light = replay_phase(
      [&](const Replay& rp) {
        obs::reset();
        PhaseStats st = open_loop(ws, rp, kLightRps, light_total);
        const JsonValue stats =
            JsonValue::parse(roundtrip(ws[0].fd, request(0, "stats")));
        if (const JsonValue* ops = stats.find("ops")) light_server = *ops;
        return st;
      },
      0);
  time_opens();
  const PhaseStats busy = replay_phase(
      [&](const Replay& rp) { return open_loop(ws, rp, kBusyRps, busy_total); },
      0);
  time_opens();
  const PhaseStats sat =
      replay_phase([&](const Replay& rp) { return saturate(rp, sat_s); }, 0);
  time_opens();
  const double max_rps = static_cast<double>(sat.requests) / sat.seconds;
  run.metric("serve.open_cold_ms", cold_ms);
  run.metric("serve.open_warm_ms", warm_ms);

  run.check(mismatches == 0, std::to_string(mismatches) +
                                 " replayed repl(ies) differ from the recording");
  run.failed(mismatches);
  run.metric("op_p50_ms", percentile(light.latency_ms, 0.50));
  run.metric("ops_per_s", max_rps);
  run.metric("db_mb", file_mb(db_path));
  run.metric("serve.light_p50_ms", percentile(light.latency_ms, 0.50));
  run.metric("serve.light_p99_ms", percentile(light.latency_ms, 0.99));
  run.metric("serve.light_p999_ms", percentile(light.latency_ms, 0.999));
  run.metric("serve.busy_p99_ms", percentile(busy.latency_ms, 0.99));
  run.metric("serve.max_rps", max_rps);
  run.metric("serve.gen_late_ms", std::max(percentile(light.late_ms, 0.99),
                                           percentile(busy.late_ms, 0.99)));
  run.metric("serve.reply_bytes",
             light.reply_bytes / static_cast<double>(light.requests));
  const pv::serve::ExperimentCache::Stats cache =
      server.sessions().cache().stats();
  run.metric("serve.cache_hit_ratio",
             static_cast<double>(cache.hits) /
                 static_cast<double>(cache.hits + cache.misses));
  run.metric("serve.rejects",
             static_cast<double>(server.queue_full_rejects() +
                                 server.deadline_rejects() +
                                 server.overload().shed_requests()));
  std::map<std::string, double> rtt_p50;
  for (const char* op : {"expand", "sort", "hot_path", "query", "flatten"}) {
    const auto it = light.rtt_us.find(op);
    const std::vector<double> none;
    const std::vector<double>& v = it == light.rtt_us.end() ? none : it->second;
    rtt_p50[op] = percentile(v, 0.50);
    const std::string k = op;
    run.metric("serve.rtt_us." + k + ".p50", rtt_p50[op]);
    run.metric("serve.rtt_us." + k + ".p99", percentile(v, 0.99));
    const JsonValue* srv = light_server.find(op);
    run.metric("serve.server_us." + k + ".p50",
               srv ? srv->get_number("p50_us", 0) : 0);
    run.metric("serve.server_us." + k + ".p99",
               srv ? srv->get_number("p99_us", 0) : 0);
  }

  if (cfg.traced()) {
    // Traced closed-loop phase (server spans tagged per request), then
    // the recording replayed in-process through ViewerController: the
    // core/ui/query layers without the serve layer around them.
    begin_trace();
    const PhaseStats traced_sat = replay_phase(
        [&](const Replay& rp) {
          PV_SPAN("bench.serve.closed_loop");
          return saturate(rp, sat_s);
        },
        /*trace_base=*/1);
    run.metric("obs.trace_overhead_pct",
               (max_rps / (static_cast<double>(traced_sat.requests) /
                           traced_sat.seconds) -
                1) *
                   100);

    std::optional<pv::db::OpenResult> opened;
    for (int i = 0; i < 3; ++i) {
      PV_SPAN("bench.db.open");
      opened = pv::db::open(db_path);
    }
    const pv::db::Experiment& exp = opened->experiment;
    std::uint64_t diffs = 0, steps = 0;
    double rows_expanded = 0, expands = 0;
    std::uint64_t trace_id = 1u << 30;
    for (std::size_t c = 0; c < kConns; ++c) {
      Mirror m(exp, pv::serve::parse_view_name(kViews[c]));
      for (std::size_t i = 0; i < scripts[c].requests.size(); ++i) {
        const JsonValue req = JsonValue::parse(scripts[c].requests[i]);
        const JsonValue reply = JsonValue::parse(scripts[c].replies[i]);
        const obs::TraceIdScope scope(++trace_id);
        if (!mirror_step(m, exp, req, reply, &rows_expanded)) ++diffs;
        if (scripts[c].ops[i] == "expand") ++expands;
        ++steps;
      }
    }
    const obs::TraceSnapshot snap = end_trace();
    run.attempted(steps);
    run.failed(diffs);
    run.check(diffs == 0, std::to_string(diffs) +
                              " server repl(ies) disagree with direct "
                              "ViewerController calls");

    const SpanTable spans = SpanTable::from(snap);
    for (const char* op : {"expand", "sort", "hot_path", "flatten"}) {
      const std::string span = std::string("bench.core.") + op;
      run.metric("core." + std::string(op) + "_us.p50",
                 spans.percentile_us(span, 0.50));
      run.metric("core." + std::string(op) + "_us.p99",
                 spans.percentile_us(span, 0.99));
    }
    run.metric("core.rows_per_expand", expands ? rows_expanded / expands : 0);
    run.metric("query.parse_us", spans.median_us("bench.query.parse"));
    run.metric("query.compile_us", spans.median_us("bench.query.compile"));
    run.metric("query.execute_us", spans.median_us("bench.query.execute"));
    const double matched = static_cast<double>(
        counter_value(snap, "bench.query.rows_matched"));
    run.metric("query.scan_per_match",
               matched ? static_cast<double>(counter_value(
                             snap, "bench.query.rows_scanned")) /
                             matched
                       : 0);
    // Serve overhead per op: round trip at the light rate minus the same
    // op's in-process time.
    for (const auto& [op, us] : rtt_p50) {
      const double inproc =
          op == "query" ? spans.median_us("bench.query.parse") +
                              spans.median_us("bench.query.compile") +
                              spans.median_us("bench.query.execute")
                        : spans.median_us("bench.core." + op);
      run.metric("serve.overhead_us." + op, us - inproc);
    }
    run.metric("db.open_ms", spans.median_us("bench.db.open") / 1e3);
    run.metric("db.read_mb", file_mb(db_path));
    run.metric("metrics.attribute_ms",
               spans.median_us("bench.metrics.attribute") / 1e3);
    run.metric("ui.controller_ms", spans.median_us("bench.ui.controller") / 1e3);
    write_trace(cfg.trace_dir, cfg.workload, snap);
  }
  run.metric("peak_rss_mb", peak_rss_mb());
}

}  // namespace pvbench
