#ifndef DMM_SERVE_SERVER_H
#define DMM_SERVE_SERVER_H

// dmm_serve: the design-as-a-service daemon.  One process multiplexes any
// number of design requests over one warm SharedScoreCache and one
// EvalEngine, speaking the frame protocol of frame.h with api-layer
// payloads (design_api.h) over a Unix-domain socket.
//
// Scheduling model — a round-robin slice scheduler over client requests:
// every request runs as the same core::DesignRun design_manager()/
// design_manager_family() and api::run_design_request() step to completion
// (per-phase walks, optional exhaustive validation pass, or one family
// search), dealt round-robin in DesignRun::step() slices of
// ServeOptions::slice_evals evaluations, and answered through the same
// api::harvest_reply().  Consequences:
//
//   * results are bit-identical to the in-process library path — a
//     request's run submits the same job stream, and search outcomes
//     never depend on cache scope or scheduling (only the
//     simulations/cache-hits split does);
//   * fairness is at slice granularity for the resumable strategies
//     (exhaustive, random, anneal); the ordered walks (greedy, beam) are
//     indivisible and complete a whole phase in one turn;
//   * cancellation is cooperative: a kCancel frame marks the session and
//     takes effect at its next turn — the request's remaining budget is
//     freed, every other session is untouched;
//   * a request's eval_budget bounds the slices it is dealt; when it runs
//     out mid-search the reply is `ok = false` with budget_exhausted set.
//
// The scheduler runs on ONE thread (the event loop): the parallelism knob
// is the evaluation engine underneath (ServeOptions::num_threads), exactly
// as in the library path.
//
// Untrusted input: a malformed *frame* poisons only its connection (error
// frame, then close); a well-framed but bad *payload* earns a per-request
// error reply and the connection stays usable.  The daemon never dies on
// client input.

#include <functional>
#include <memory>
#include <string>

#include "dmm/core/eval_engine.h"

namespace dmm::serve {

struct ServeOptions {
  /// Filesystem path of the Unix-domain listening socket.  An existing
  /// file at this path is replaced (the daemon owns its socket).
  std::string socket_path;
  /// Snapshot persistence: loaded (best effort) at start(), saved on
  /// graceful shutdown.  Empty = no persistence.
  std::string cache_file;
  /// Growth bound of the daemon's shared score cache (0 = unbounded).
  core::SharedScoreCache::Limits cache_limits{};
  /// Evaluation-engine workers (ExplorerOptions::num_threads semantics:
  /// 1 = serial, 0 = one per hardware thread).
  unsigned num_threads = 1;
  /// Evaluations dealt to one session per scheduler turn.
  std::size_t slice_evals = 64;
  /// Polled between turns; return true to shut down gracefully (signal
  /// handlers set a flag this reads).  Optional.
  std::function<bool()> should_stop;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on the socket (and loads the cache snapshot, when
  /// configured).  False with @p why on setup failure.
  [[nodiscard]] bool start(std::string* why);

  /// The event loop: accepts connections, schedules sessions, streams
  /// progress, until a kShutdown frame arrives or should_stop() /
  /// request_stop() fires.  Returns 0 on a clean exit (in-flight sessions
  /// answered with an error reply, snapshot saved); non-zero only when
  /// start() was never called successfully.
  int run();

  /// Thread-safe shutdown trigger (equivalent to should_stop returning
  /// true) — for embedding the server in tests.
  void request_stop();

  /// The daemon's shared score cache (inspection / tests).
  [[nodiscard]] const core::SharedScoreCache& cache() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dmm::serve

#endif  // DMM_SERVE_SERVER_H
