// End-to-end contract of the dmm_serve daemon (src/serve/server.h),
// exercised in-process: a Server on a temp Unix socket, real Clients over
// real sockets.
//  * a served request is bit-for-bit the library path (run_design_request),
//  * a second request is served from cross-search cache hits,
//  * concurrent requests interleave fairly and both finish correctly,
//  * cancellation frees a request's budget without disturbing a survivor,
//  * an exhausted eval budget finalizes with a clean budget_exhausted reply,
//  * garbage bytes get one error frame and a closed connection, and a
//    trace file that does not decode gets an error reply — the daemon
//    survives both,
//  * graceful shutdown saves the cache snapshot, and a restarted daemon
//    serves persisted hits from it.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dmm/api/design_api.h"
#include "dmm/serve/client.h"
#include "dmm/serve/frame.h"
#include "dmm/serve/server.h"
#include "dmmt_forge.h"

namespace dmm::serve {
namespace {

/// A Server run()ning on its own thread, joined on destruction.
class TestServer {
 public:
  explicit TestServer(ServeOptions options) : server_(std::move(options)) {}

  ~TestServer() { stop(); }

  [[nodiscard]] bool start(std::string* why) {
    if (!server_.start(why)) return false;
    thread_ = std::thread([this] { rc_ = server_.run(); });
    return true;
  }

  /// Stops via request_stop() (the signal path) and joins; returns run()'s
  /// exit code.
  int stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
    return rc_;
  }

  [[nodiscard]] Server& server() { return server_; }

 private:
  Server server_;
  std::thread thread_;
  int rc_ = -1;
};

/// The small deterministic request every test submits: drr seed 1, first
/// 2000 events, greedy walk.
api::DesignRequest small_request() {
  api::DesignRequest req;
  req.traces.resize(1);
  req.max_events = 2000;
  return req;
}

struct Outcome {
  api::DesignReply reply;
  std::vector<api::ProgressEvent> progress;
};

/// Submits @p req on a fresh connection and drains it to the final reply.
/// @p cancel_after_beats > 0 sends a cancel after that many progress
/// events.
Outcome run_client(const std::string& socket_path,
                   const api::DesignRequest& req,
                   int cancel_after_beats = 0) {
  Outcome outcome;
  Client client;
  std::string why;
  EXPECT_TRUE(client.connect_to(socket_path, &why)) << why;
  EXPECT_TRUE(client.send_request(req, &why)) << why;
  bool cancel_sent = false;
  for (;;) {
    api::ProgressEvent progress;
    api::DesignReply reply;
    const Client::Event event = client.next(&progress, &reply, &why);
    if (event == Client::Event::kProgress) {
      outcome.progress.push_back(progress);
      if (cancel_after_beats > 0 && !cancel_sent &&
          outcome.progress.size() >= static_cast<std::size_t>(
                                         cancel_after_beats)) {
        EXPECT_TRUE(client.send_cancel(&why)) << why;
        cancel_sent = true;
      }
      continue;
    }
    if (event == Client::Event::kReply) {
      outcome.reply = reply;
      return outcome;
    }
    ADD_FAILURE() << "connection ended without a reply: " << why;
    return outcome;
  }
}

/// Per-test socket (and cache snapshot) paths under gtest's temp dir.
class ServeE2e : public ::testing::Test {
 protected:
  ServeE2e() {
    const std::string base =
        ::testing::TempDir() + "dmm_e2e_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    socket_ = base + ".sock";
    cache_ = base + ".cache";
    std::remove(socket_.c_str());
    std::remove(cache_.c_str());
  }
  ~ServeE2e() override {
    std::remove(socket_.c_str());
    std::remove(cache_.c_str());
  }

  [[nodiscard]] ServeOptions options() const {
    ServeOptions opts;
    opts.socket_path = socket_;
    return opts;
  }

  std::string socket_;
  std::string cache_;
};

TEST_F(ServeE2e, ServedRequestIsTheLibraryPathBitForBit) {
  TestServer daemon(options());
  std::string why;
  ASSERT_TRUE(daemon.start(&why)) << why;

  const api::DesignRequest req = small_request();
  const Outcome served = run_client(socket_, req);
  const api::DesignReply local = api::run_design_request(req);

  ASSERT_TRUE(served.reply.ok) << served.reply.error;
  ASSERT_TRUE(local.ok) << local.error;
  EXPECT_EQ(served.reply.phase_signatures, local.phase_signatures);
  EXPECT_EQ(served.reply.feasible, local.feasible);
  EXPECT_EQ(served.reply.best_peak, local.best_peak);
  EXPECT_EQ(served.reply.evaluations, local.evaluations);
  EXPECT_EQ(served.reply.simulations, local.simulations);
  EXPECT_EQ(served.reply.cache_hits, local.cache_hits);

  // Progress streamed and stayed coherent.
  ASSERT_FALSE(served.progress.empty());
  std::uint64_t last = 0;
  for (const api::ProgressEvent& p : served.progress) {
    EXPECT_GE(p.evaluations, last);
    last = p.evaluations;
    EXPECT_GE(p.phase_count, 1u);
    EXPECT_LT(p.phase, p.phase_count);
  }
}

TEST_F(ServeE2e, SecondRequestRidesTheFirstOnesReplays) {
  TestServer daemon(options());
  std::string why;
  ASSERT_TRUE(daemon.start(&why)) << why;

  const api::DesignRequest req = small_request();
  const Outcome first = run_client(socket_, req);
  const Outcome second = run_client(socket_, req);
  ASSERT_TRUE(first.reply.ok) << first.reply.error;
  ASSERT_TRUE(second.reply.ok) << second.reply.error;
  EXPECT_EQ(second.reply.phase_signatures, first.reply.phase_signatures);
  EXPECT_EQ(second.reply.best_peak, first.reply.best_peak);
  // Everything the second request needed was already scored.
  EXPECT_EQ(second.reply.simulations, 0u);
  EXPECT_GT(second.reply.cross_search_hits, 0u);
  EXPECT_EQ(second.reply.evaluations, first.reply.evaluations);
}

TEST_F(ServeE2e, ConcurrentRequestsBothFinishCorrectly) {
  TestServer daemon(options());
  std::string why;
  ASSERT_TRUE(daemon.start(&why)) << why;

  const api::DesignRequest req = small_request();
  Outcome a;
  Outcome b;
  std::thread ta([&] { a = run_client(socket_, req); });
  std::thread tb([&] { b = run_client(socket_, req); });
  ta.join();
  tb.join();
  ASSERT_TRUE(a.reply.ok) << a.reply.error;
  ASSERT_TRUE(b.reply.ok) << b.reply.error;
  EXPECT_EQ(a.reply.phase_signatures, b.reply.phase_signatures);
  EXPECT_EQ(a.reply.best_peak, b.reply.best_peak);
  // The pair shares one cache: at most one of them pays for each replay.
  EXPECT_LE(a.reply.simulations + b.reply.simulations,
            a.reply.evaluations);
}

TEST_F(ServeE2e, CancelFreesTheRequestWithoutDisturbingTheSurvivor) {
  // The doomed request is the exhaustive validator over the uncapped DRR
  // trace: every candidate replays 159k events, so one 4-evaluation slice
  // outlasts the cancel's round trip and the enumeration is nowhere near
  // done when its first progress beat draws the cancel.  Small slices also
  // let the cancel land before the candidates that replay for seconds.
  ServeOptions opts = options();
  opts.slice_evals = 4;
  TestServer daemon(std::move(opts));
  std::string why;
  ASSERT_TRUE(daemon.start(&why)) << why;

  api::DesignRequest doomed = small_request();
  doomed.max_events = 0;
  doomed.search_text = "exhaustive";

  Outcome survivor;
  std::thread ts(
      [&] { survivor = run_client(socket_, small_request()); });
  const Outcome cancelled = run_client(socket_, doomed,
                                       /*cancel_after_beats=*/1);
  ts.join();

  EXPECT_FALSE(cancelled.reply.ok);
  EXPECT_TRUE(cancelled.reply.cancelled);
  EXPECT_NE(cancelled.reply.error.find("cancelled"), std::string::npos)
      << cancelled.reply.error;
  // Below the full enumeration: the slices stopped being dealt.  The
  // number of coherent positions does not depend on the trace, so the
  // cut's enumeration counts it.
  api::DesignRequest full = small_request();
  full.search_text = "exhaustive";
  EXPECT_LT(cancelled.reply.evaluations,
            api::run_design_request(full).evaluations);

  ASSERT_TRUE(survivor.reply.ok) << survivor.reply.error;
  EXPECT_EQ(survivor.reply.phase_signatures,
            api::run_design_request(small_request()).phase_signatures);
}

TEST_F(ServeE2e, EvalBudgetExhaustionFinalizesCleanly) {
  TestServer daemon(options());
  std::string why;
  ASSERT_TRUE(daemon.start(&why)) << why;

  api::DesignRequest req = small_request();
  req.search_text = "exhaustive";  // ~270 evaluations, past the budget
  req.eval_budget = 100;
  const Outcome outcome = run_client(socket_, req);
  EXPECT_FALSE(outcome.reply.ok);
  EXPECT_TRUE(outcome.reply.budget_exhausted);
  EXPECT_FALSE(outcome.reply.cancelled);
  EXPECT_NE(outcome.reply.error.find("budget"), std::string::npos)
      << outcome.reply.error;
  // Charged past the line by at most one scheduler slice.
  EXPECT_GE(outcome.reply.evaluations, 100u);
  EXPECT_LT(outcome.reply.evaluations, 100u + 512u);
}

TEST_F(ServeE2e, RequestsMayNotCarryACacheFile) {
  TestServer daemon(options());
  std::string why;
  ASSERT_TRUE(daemon.start(&why)) << why;

  api::DesignRequest req = small_request();
  req.cache_file = "/tmp/mine.cache";
  const Outcome outcome = run_client(socket_, req);
  EXPECT_FALSE(outcome.reply.ok);
  EXPECT_NE(outcome.reply.error.find("daemon-owned"), std::string::npos)
      << outcome.reply.error;
}

TEST_F(ServeE2e, UndecodableTraceFileIsRejectedAndTheDaemonServesOn) {
  TestServer daemon(options());
  std::string why;
  ASSERT_TRUE(daemon.start(&why)) << why;

  const std::string path = socket_ + ".dmmt";
  ASSERT_TRUE(trace::forge::write_undecodable_trace(path));
  api::DesignRequest req = small_request();
  req.traces[0].kind = api::TraceRef::Kind::kFile;
  req.traces[0].path = path;
  const Outcome rejected = run_client(socket_, req);
  std::remove(path.c_str());
  EXPECT_FALSE(rejected.reply.ok);
  EXPECT_NE(rejected.reply.error.find(path), std::string::npos)
      << rejected.reply.error;

  const Outcome outcome = run_client(socket_, small_request());
  EXPECT_TRUE(outcome.reply.ok) << outcome.reply.error;
}

TEST_F(ServeE2e, GarbageBytesGetOneErrorFrameAndAClosedConnection) {
  TestServer daemon(options());
  std::string why;
  ASSERT_TRUE(daemon.start(&why)) << why;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char garbage[] = "not a frame at all";
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));

  // The daemon answers with exactly one kError frame, then EOF.
  FrameReader reader;
  bool got_error_frame = false;
  bool got_eof = false;
  for (;;) {
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      got_eof = true;
      break;
    }
    reader.feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    std::string reason;
    while (reader.next(&frame, &reason) == FrameReader::Status::kFrame) {
      EXPECT_EQ(frame.type, FrameType::kError);
      got_error_frame = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_error_frame);
  EXPECT_TRUE(got_eof);

  // The daemon survived and still serves real clients.
  const Outcome outcome = run_client(socket_, small_request());
  EXPECT_TRUE(outcome.reply.ok) << outcome.reply.error;
}

TEST_F(ServeE2e, ShutdownSavesTheSnapshotAndARestartServesPersistedHits) {
  ServeOptions opts = options();
  opts.cache_file = cache_;
  {
    TestServer daemon(opts);
    std::string why;
    ASSERT_TRUE(daemon.start(&why)) << why;
    ASSERT_TRUE(run_client(socket_, small_request()).reply.ok);

    // Graceful shutdown via the client-visible frame, not request_stop().
    Client client;
    ASSERT_TRUE(client.connect_to(socket_, &why)) << why;
    ASSERT_TRUE(client.send_shutdown(&why)) << why;
    api::ProgressEvent progress;
    api::DesignReply reply;
    while (client.next(&progress, &reply, &why) != Client::Event::kClosed) {
    }
    EXPECT_EQ(daemon.stop(), 0);
  }
  {
    std::FILE* f = std::fopen(cache_.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "shutdown did not save the snapshot";
    std::fclose(f);
  }

  TestServer restarted(opts);
  std::string why;
  ASSERT_TRUE(restarted.start(&why)) << why;
  const Outcome warm = run_client(socket_, small_request());
  ASSERT_TRUE(warm.reply.ok) << warm.reply.error;
  EXPECT_EQ(warm.reply.simulations, 0u);
  EXPECT_GT(warm.reply.persisted_hits, 0u);
  EXPECT_EQ(warm.reply.cross_search_hits, 0u);
}

}  // namespace
}  // namespace dmm::serve
