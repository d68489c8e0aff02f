#include "dmm/serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/api/design_api.h"
#include "dmm/core/methodology.h"
#include "dmm/serve/frame.h"

namespace dmm::serve {

namespace {

/// Poll timeout while no session is runnable — bounds how late a
/// should_stop()/request_stop() shutdown is noticed.
constexpr int kIdlePollMs = 200;

/// Progress frames are advisory: when a client falls this many unread
/// bytes behind, beats are dropped instead of buffered without bound.
/// Replies and errors always queue.
constexpr std::size_t kMaxOutbufBytes = 256 * 1024;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One in-flight request: the same core::DesignRun run_design_request()
/// steps to completion, dealt here in step() slices so requests
/// interleave.  Search outcomes are bit-identical to the library path: a
/// request's job stream does not depend on what other sessions run, only
/// the simulations vs cache-hits split does.
struct DesignSession {
  api::DesignRequest request;
  std::vector<core::AllocTrace> traces;  ///< the inputs the run borrows
  std::unique_ptr<core::DesignRun> run;  ///< served by the daemon's cache
  bool cancelled = false;                ///< kCancel seen; honoured next turn
};

}  // namespace

struct Server::Impl {
  ServeOptions options;
  std::shared_ptr<core::SharedScoreCache> cache;
  std::unique_ptr<core::EvalEngine> engine;
  int listen_fd = -1;
  bool started = false;
  std::atomic<bool> stop_flag{false};
  bool shutdown_frame = false;

  struct Connection {
    int fd = -1;
    FrameReader reader;
    std::string outbuf;
    bool close_after_flush = false;
    std::unique_ptr<DesignSession> session;
  };
  std::vector<std::unique_ptr<Connection>> conns;

  explicit Impl(ServeOptions o)
      : options(std::move(o)),
        cache(std::make_shared<core::SharedScoreCache>(options.cache_limits)),
        engine(core::make_engine(options.num_threads)) {}

  ~Impl() {
    for (const std::unique_ptr<Connection>& c : conns) {
      if (c->fd >= 0) ::close(c->fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
  }

  bool start(std::string* why) {
    sockaddr_un addr{};
    if (options.socket_path.empty() ||
        options.socket_path.size() >= sizeof(addr.sun_path)) {
      *why = "socket path must be 1 to " +
             std::to_string(sizeof(addr.sun_path) - 1) + " bytes: '" +
             options.socket_path + "'";
      return false;
    }
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      *why = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (!set_nonblocking(listen_fd)) {
      *why = std::string("fcntl: ") + std::strerror(errno);
      return false;
    }
    // The daemon owns its socket path: a stale file from a previous run
    // must not block startup.
    ::unlink(options.socket_path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options.socket_path.c_str(),
                options.socket_path.size() + 1);
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      *why = "bind " + options.socket_path + ": " + std::strerror(errno);
      return false;
    }
    if (::listen(listen_fd, 16) != 0) {
      *why = std::string("listen: ") + std::strerror(errno);
      return false;
    }
    // Warm start, best effort: a missing or rejected snapshot is a cold
    // cache, never a startup failure.
    if (!options.cache_file.empty()) (void)cache->load(options.cache_file);
    started = true;
    return true;
  }

  // -- connection plumbing --------------------------------------------------

  void kill_connection(Connection& c) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    c.session.reset();
    c.outbuf.clear();
  }

  void flush(Connection& c) {
    while (c.fd >= 0 && !c.outbuf.empty()) {
      const ssize_t n =
          ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.outbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      kill_connection(c);  // peer gone; its session dies with it
      return;
    }
    if (c.fd >= 0 && c.outbuf.empty() && c.close_after_flush) {
      kill_connection(c);
    }
  }

  void queue_frame(Connection& c, FrameType type, const std::string& payload) {
    if (c.fd < 0) return;
    const std::vector<std::uint8_t> frame = encode_frame(type, payload);
    c.outbuf.append(reinterpret_cast<const char*>(frame.data()), frame.size());
    flush(c);
  }

  /// A well-framed but unusable ask: the reply says why, the connection
  /// stays open for the next request.
  void queue_error_reply(Connection& c, const std::string& error) {
    api::DesignReply reply;
    reply.error = error;
    queue_frame(c, FrameType::kReply, api::serialize_reply(reply));
  }

  void accept_connections() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or a transient error: retry next loop turn
      }
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      auto c = std::make_unique<Connection>();
      c->fd = fd;
      conns.push_back(std::move(c));
    }
  }

  // -- session lifecycle ----------------------------------------------------

  /// Parses and admits one kRequest frame; returns the rejection reason
  /// ("" = admitted).  Rejections never disturb the connection.
  std::string begin_session(Connection& c, const std::string& payload) {
    if (c.session != nullptr) {
      return "a request is already in flight on this connection";
    }
    auto s = std::make_unique<DesignSession>();
    std::string why;
    if (!api::parse_request(payload, &s->request, &why)) return why;
    if (!s->request.cache_file.empty()) {
      return "cache-file is daemon-owned; remove it from the request";
    }
    if (!api::load_traces(s->request, &s->traces, &why)) return why;
    s->run = api::make_design_run(s->request, s->traces, *engine, cache);
    c.session = std::move(s);
    return "";
  }

  /// Replies with the session's harvest and retires it — at the natural
  /// end (@p error empty) or mid-search (cancellation, budget exhaustion,
  /// shutdown), when the reply reports the work done so far.
  void finalize(Connection& c, const std::string& error = "",
                bool cancelled = false, bool budget_exhausted = false) {
    api::DesignReply reply = api::harvest_reply(*c.session->run);
    reply.ok = error.empty();
    reply.error = error;
    reply.cancelled = cancelled;
    reply.budget_exhausted = budget_exhausted;
    reply.cache_entries = cache->size();
    reply.cache_evictions = cache->stats().evictions;
    queue_frame(c, FrameType::kReply, api::serialize_reply(reply));
    c.session.reset();
  }

  void queue_progress(Connection& c) {
    if (c.outbuf.size() > kMaxOutbufBytes) return;  // lossy by design
    const core::DesignProgress p = c.session->run->progress();
    api::ProgressEvent ev;
    ev.phase = static_cast<std::uint32_t>(p.phase);
    ev.phase_count = static_cast<std::uint32_t>(p.phase_count);
    ev.evaluations = p.evaluations;
    ev.simulations = p.simulations;
    ev.cache_hits = p.cache_hits;
    if (p.has_incumbent) {
      ev.has_incumbent = true;
      ev.incumbent_peak = p.incumbent_peak;
      ev.incumbent = alloc::signature(p.incumbent);
    }
    queue_frame(c, FrameType::kProgress, api::serialize_progress(ev));
  }

  /// One scheduler turn: honour a pending cancel, meter the budget, deal
  /// one step() slice, stream a progress beat.
  void session_turn(Connection& c) {
    DesignSession& s = *c.session;
    if (s.cancelled) {
      finalize(c, "cancelled by client", true, false);
      return;
    }
    std::size_t slice = options.slice_evals == 0 ? 64 : options.slice_evals;
    if (s.request.eval_budget > 0) {
      const std::uint64_t charged = s.run->progress().evaluations;
      if (charged >= s.request.eval_budget) {
        finalize(c, "evaluation budget exhausted", false, true);
        return;
      }
      const std::uint64_t left = s.request.eval_budget - charged;
      if (left < slice) slice = static_cast<std::size_t>(left);
    }
    const bool more = s.run->step(slice);
    queue_progress(c);
    if (!more) finalize(c);
  }

  // -- frame dispatch -------------------------------------------------------

  void handle_frame(Connection& c, const Frame& f) {
    switch (f.type) {
      case FrameType::kRequest: {
        const std::string err = begin_session(c, f.payload);
        if (!err.empty()) queue_error_reply(c, err);
        break;
      }
      case FrameType::kCancel:
        if (c.session != nullptr) {
          c.session->cancelled = true;
        } else {
          queue_error_reply(c, "no request in flight to cancel");
        }
        break;
      case FrameType::kShutdown:
        shutdown_frame = true;
        break;
      default:
        // Unknown types are a consumer-level error: reply and carry on,
        // so a newer client's extra frames never poison the stream.
        queue_error_reply(
            c, "unknown frame type " +
                   std::to_string(static_cast<std::uint32_t>(f.type)));
        break;
    }
  }

  void read_input(Connection& c) {
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.reader.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or a hard error: the peer is gone.  A truncated frame at EOF
      // needs no reply — nobody is left to read one — and an abandoned
      // session dies with its connection, freeing its budget.
      kill_connection(c);
      return;
    }
    for (;;) {
      Frame f;
      std::string why;
      const FrameReader::Status st = c.reader.next(&f, &why);
      if (st == FrameReader::Status::kNeedMore) break;
      if (st == FrameReader::Status::kError) {
        // Framing is untrustworthy from here on: say why, then drop the
        // connection — but only this connection.
        queue_frame(c, FrameType::kError, why);
        c.close_after_flush = true;
        flush(c);
        break;
      }
      handle_frame(c, f);
      if (c.fd < 0 || c.close_after_flush) break;
    }
  }

  // -- the event loop -------------------------------------------------------

  bool should_shutdown() {
    return shutdown_frame || stop_flag.load(std::memory_order_relaxed) ||
           (options.should_stop && options.should_stop());
  }

  void shutdown_now() {
    for (const std::unique_ptr<Connection>& c : conns) {
      if (c->fd < 0) continue;
      if (c->session != nullptr) {
        finalize(*c, "daemon shutting down");
      }
      flush(*c);
      kill_connection(*c);
    }
    conns.clear();
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
    ::unlink(options.socket_path.c_str());
    // The graceful exit persists everything every session replayed.
    if (!options.cache_file.empty()) (void)cache->save(options.cache_file);
  }

  int run() {
    if (!started) return 1;
    std::vector<pollfd> fds;
    while (!should_shutdown()) {
      fds.clear();
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
      bool any_session = false;
      for (const std::unique_ptr<Connection>& c : conns) {
        short ev = POLLIN;
        if (!c->outbuf.empty()) ev = static_cast<short>(ev | POLLOUT);
        fds.push_back(pollfd{c->fd, ev, 0});
        if (c->session != nullptr) any_session = true;
      }
      // With runnable sessions the loop must not block — poll is only a
      // readiness snapshot between scheduler rounds.
      const int timeout = any_session ? 0 : kIdlePollMs;
      const std::size_t polled = conns.size();
      const int rc =
          ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;  // unrecoverable poll failure: shut down cleanly
      }
      if ((fds[0].revents & POLLIN) != 0) accept_connections();
      for (std::size_t i = 0; i < polled; ++i) {
        Connection& c = *conns[i];
        if (c.fd < 0) continue;
        const short re = fds[i + 1].revents;
        if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) read_input(c);
        if (c.fd >= 0 && (re & POLLOUT) != 0) flush(c);
      }
      // The scheduler: one slice per session per loop turn — round-robin
      // fairness at slice granularity.
      for (const std::unique_ptr<Connection>& c : conns) {
        if (should_shutdown()) break;
        if (c->fd >= 0 && c->session != nullptr) session_turn(*c);
      }
      std::erase_if(conns, [](const std::unique_ptr<Connection>& c) {
        return c->fd < 0;
      });
    }
    shutdown_now();
    return 0;
  }
};

Server::Server(ServeOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

bool Server::start(std::string* why) { return impl_->start(why); }

int Server::run() { return impl_->run(); }

void Server::request_stop() {
  impl_->stop_flag.store(true, std::memory_order_relaxed);
}

const core::SharedScoreCache& Server::cache() const { return *impl_->cache; }

}  // namespace dmm::serve
