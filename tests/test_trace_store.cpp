// DMMT trace store: round trips must preserve the event stream,
// fingerprint, stats, and id bounds bit-for-bit; every corruption mode
// (truncation, bit flips, bad magic, future versions, forged indexes)
// must reject cleanly at open — including forged block sizes and counts,
// before they can size a buffer; the DRR trace encodes to <= 8/3 B/event
// and a cursor's working set does not grow with trace length; and a
// file-backed exploration must be bit-identical to the same search on the
// in-memory trace at every thread count.

#include "dmm/trace/trace_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dmm/core/search.h"
#include "dmm/trace/trace_codec.h"
#include "dmm/workloads/workload.h"
#include "dmmt_forge.h"

namespace dmm::trace {
namespace {

using core::AllocEvent;
using core::AllocTrace;
using core::TraceStats;

AllocTrace workload_trace(const std::string& name,
                          std::size_t max_events = 0) {
  AllocTrace t = workloads::record_trace(workloads::case_study(name), 7);
  t.truncate(max_events);
  std::string why;
  EXPECT_TRUE(t.validate(&why)) << name << ": " << why;
  return t;
}

void expect_stats_eq(const TraceStats& a, const TraceStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.allocs, b.allocs) << what;
  EXPECT_EQ(a.frees, b.frees) << what;
  EXPECT_EQ(a.peak_live_bytes, b.peak_live_bytes) << what;
  EXPECT_EQ(a.peak_live_blocks, b.peak_live_blocks) << what;
  EXPECT_EQ(a.distinct_sizes, b.distinct_sizes) << what;
  EXPECT_EQ(a.min_size, b.min_size) << what;
  EXPECT_EQ(a.max_size, b.max_size) << what;
  EXPECT_DOUBLE_EQ(a.mean_size, b.mean_size) << what;
  EXPECT_DOUBLE_EQ(a.mean_lifetime_events, b.mean_lifetime_events) << what;
  EXPECT_EQ(a.phases, b.phases) << what;
  EXPECT_EQ(a.class_histogram, b.class_histogram) << what;
  EXPECT_EQ(a.top_sizes, b.top_sizes) << what;
}

/// A per-test .dmmt path under gtest's temp dir, removed on teardown.
class TraceStore : public ::testing::Test {
 protected:
  TraceStore()
      : path_(::testing::TempDir() + "dmm_trace_store_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".dmmt") {
    std::remove(path_.c_str());
  }
  ~TraceStore() override { std::remove(path_.c_str()); }

  std::vector<std::uint8_t> read_file() const {
    std::vector<std::uint8_t> bytes;
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  void write_file(const std::vector<std::uint8_t>& bytes) const {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  /// Writes the DRR trace, returns it, and asserts the file opens clean.
  AllocTrace write_drr(std::uint32_t block_events = 256) {
    AllocTrace t = workload_trace("drr");
    TraceWriter::Options o;
    o.block_events = block_events;
    std::string why;
    EXPECT_TRUE(write_trace_file(t, path_, o, &why)) << why;
    return t;
  }

  std::string path_;
};

TEST_F(TraceStore, RoundTripsEveryBundledWorkload) {
  // The 10,000-event DRR cut rides along to pin the cursor's working set:
  // one default block, the same as for the full trace.
  const std::pair<std::string, std::size_t> inputs[] = {
      {"drr", 10000}, {"drr", 0}, {"recon3d", 0}, {"render3d", 0}};
  for (const auto& [name, max_events] : inputs) {
    const AllocTrace t = workload_trace(name, max_events);
    std::string why;
    ASSERT_TRUE(write_trace_file(t, path_, {}, &why)) << name << ": " << why;
    const auto m = MappedTrace::open(path_, &why);
    ASSERT_NE(m, nullptr) << name << ": " << why;

    EXPECT_EQ(m->event_count(), t.size()) << name;
    EXPECT_EQ(m->fingerprint(), t.fingerprint()) << name;
    EXPECT_EQ(m->id_bounds().max_id, t.id_bounds().max_id) << name;
    EXPECT_EQ(m->id_bounds().allocs, t.id_bounds().allocs) << name;
    expect_stats_eq(m->stats(), t.stats(), name);
    EXPECT_TRUE(m->verify_blocks(&why)) << name << ": " << why;
    // >= 3x smaller than a naive 8 B/event dump.
    EXPECT_LE(static_cast<double>(m->file_bytes()) /
                  static_cast<double>(t.size()),
              8.0 / 3.0)
        << name;
    if (name == "drr") {
      EXPECT_EQ(m->cursor_buffer_bytes(),
                kDefaultBlockEvents * sizeof(AllocEvent))
          << max_events;
    }

    const AllocTrace back = m->materialize();
    ASSERT_EQ(back.size(), t.size()) << name;
    EXPECT_TRUE(back.events() == t.events()) << name;
    EXPECT_EQ(back.fingerprint(), t.fingerprint()) << name;
  }
}

TEST_F(TraceStore, StreamingWriterMatchesWholeTraceHelper) {
  const AllocTrace t = workload_trace("drr", 5000);
  std::string why;
  auto w = TraceWriter::create(path_, &why);
  ASSERT_NE(w, nullptr) << why;
  for (const AllocEvent& e : t.events()) w->add(e);
  ASSERT_TRUE(w->finish(&why)) << why;

  const auto m = MappedTrace::open(path_, &why);
  ASSERT_NE(m, nullptr) << why;
  EXPECT_EQ(m->fingerprint(), t.fingerprint());
  EXPECT_TRUE(m->materialize().events() == t.events());
}

TEST_F(TraceStore, CursorStreamsEveryEventInOrder) {
  const AllocTrace t = write_drr(64);
  std::string why;
  const auto m = MappedTrace::open(path_, &why);
  ASSERT_NE(m, nullptr) << why;
  EXPECT_GT(m->block_count(), 1u);

  const auto cur = m->cursor();
  std::vector<AllocEvent> got;
  const AllocEvent* run = nullptr;
  std::size_t n = 0;
  while ((n = cur->next(&run)) != 0) {
    got.insert(got.end(), run, run + n);
    EXPECT_LE(n, m->block_events());
  }
  EXPECT_TRUE(got == t.events());
  EXPECT_EQ(cur->next(&run), 0u);  // stays at end
}

TEST_F(TraceStore, EmptyTraceRoundTrips) {
  const AllocTrace t;
  std::string why;
  ASSERT_TRUE(write_trace_file(t, path_, {}, &why)) << why;
  const auto m = MappedTrace::open(path_, &why);
  ASSERT_NE(m, nullptr) << why;
  EXPECT_EQ(m->event_count(), 0u);
  EXPECT_EQ(m->fingerprint(), t.fingerprint());
  const auto cur = m->cursor();
  const AllocEvent* run = nullptr;
  EXPECT_EQ(cur->next(&run), 0u);
}

// The bytes the parent format wrote for DRR seed 7 cut to 1,280 events:
// the whole file's FNV-1a, pinned so a codec change that moves one byte
// fails here, not when a recorded trace stops opening.
TEST_F(TraceStore, WrittenBytesArePinned) {
  const AllocTrace t = workload_trace("drr", 1280);
  std::string why;
  ASSERT_TRUE(write_trace_file(t, path_, {}, &why)) << why;
  const std::vector<std::uint8_t> bytes = read_file();
  ASSERT_EQ(bytes.size(), 3205u);
  EXPECT_EQ(core::snapshot_checksum(bytes.data(), bytes.size()),
            0x3f71da647930d2e1ull);
}

// --- Two writers, one path: each streams into its own temp sibling, and
// the last to finish renames its whole trace over the other's. ----------

TEST_F(TraceStore, ConcurrentWritersToOnePathLastFinisherWins) {
  const AllocTrace a = workload_trace("drr", 3000);
  const AllocTrace b = workload_trace("recon3d", 2000);
  TraceWriter::Options o;
  o.block_events = 256;  // both writers flush blocks while the other is open
  std::string why;
  const auto wa = TraceWriter::create(path_, o, &why);
  ASSERT_NE(wa, nullptr) << why;
  const auto wb = TraceWriter::create(path_, o, &why);
  ASSERT_NE(wb, nullptr) << why;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i < a.size()) wa->add(a.events()[i]);
    if (i < b.size()) wb->add(b.events()[i]);
  }
  EXPECT_TRUE(wa->finish(&why)) << why;
  EXPECT_TRUE(wb->finish(&why)) << why;
  const auto m = MappedTrace::open(path_, &why);
  ASSERT_NE(m, nullptr) << why;
  EXPECT_EQ(m->fingerprint(), b.fingerprint());
  EXPECT_TRUE(m->materialize().events() == b.events());
}

TEST_F(TraceStore, ConcurrentThreadedWritersLeaveOneWholeTrace) {
  const AllocTrace traces[2] = {workload_trace("drr", 3000),
                                workload_trace("render3d", 2000)};
  TraceWriter::Options o;
  o.block_events = 256;
  for (int round = 0; round < 5; ++round) {
    bool ok[2] = {false, false};
    std::string why[2];
    std::thread writers[2];
    for (int w = 0; w < 2; ++w) {
      writers[w] = std::thread([&, w] {
        ok[w] = write_trace_file(traces[w], path_, o, &why[w]);
      });
    }
    for (std::thread& t : writers) t.join();
    EXPECT_TRUE(ok[0]) << why[0];
    EXPECT_TRUE(ok[1]) << why[1];
    std::string reason;
    const auto m = MappedTrace::open(path_, &reason);
    ASSERT_NE(m, nullptr) << reason;
    EXPECT_TRUE(m->fingerprint() == traces[0].fingerprint() ||
                m->fingerprint() == traces[1].fingerprint());
  }
}

// --- Corruption matrix: every mutation must reject at open, whole. ------

TEST_F(TraceStore, RejectsMissingFile) {
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_ + ".absent", &why), nullptr);
  EXPECT_FALSE(why.empty());
}

TEST_F(TraceStore, RejectsTruncatedHeader) {
  (void)write_drr();
  auto bytes = read_file();
  bytes.resize(kTraceHeaderBytes - 1);
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
  EXPECT_NE(why.find("header"), std::string::npos) << why;
}

TEST_F(TraceStore, RejectsBadMagic) {
  (void)write_drr();
  auto bytes = read_file();
  bytes[0] ^= 0xffu;
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
  EXPECT_NE(why.find("magic"), std::string::npos) << why;
}

TEST_F(TraceStore, RejectsFutureVersion) {
  (void)write_drr();
  auto bytes = read_file();
  bytes[4] = static_cast<std::uint8_t>(kTraceVersion + 1);
  // Re-seal the header checksum so *only* the version is at fault.
  forge::reseal_header(&bytes);
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
  EXPECT_NE(why.find("version"), std::string::npos) << why;
}

TEST_F(TraceStore, RejectsHeaderChecksumMismatch) {
  (void)write_drr();
  auto bytes = read_file();
  bytes[8] ^= 0x01u;  // event_count low byte
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
  EXPECT_NE(why.find("checksum"), std::string::npos) << why;
}

TEST_F(TraceStore, RejectsAnyFlippedBodyBit) {
  (void)write_drr(64);
  const auto clean = read_file();
  // Flip one byte in each region beyond the header: early block, late
  // block, stats blob, index.  Every single one must fail open.
  const std::size_t probes[] = {kTraceHeaderBytes + 3, clean.size() / 2,
                                clean.size() - 9, clean.size() - 1};
  for (const std::size_t at : probes) {
    auto bytes = clean;
    bytes[at] ^= 0x10u;
    write_file(bytes);
    std::string why;
    EXPECT_EQ(MappedTrace::open(path_, &why), nullptr)
        << "flip at " << at << " was accepted";
    EXPECT_FALSE(why.empty());
  }
}

TEST_F(TraceStore, RejectsTruncatedBody) {
  (void)write_drr(64);
  const auto clean = read_file();
  for (const std::size_t keep :
       {kTraceHeaderBytes, clean.size() / 3, clean.size() - 1}) {
    auto bytes = clean;
    bytes.resize(keep);
    write_file(bytes);
    std::string why;
    EXPECT_EQ(MappedTrace::open(path_, &why), nullptr)
        << "truncation to " << keep << " was accepted";
  }
}

TEST_F(TraceStore, RejectsTrailingGarbage) {
  (void)write_drr();
  auto bytes = read_file();
  bytes.push_back(0xeeu);
  write_file(bytes);
  std::string why;
  EXPECT_EQ(MappedTrace::open(path_, &why), nullptr);
}

// A forged header may claim any block size; buffers follow the blocks the
// index actually holds.  Asserted before any decode, so a reader that
// trusts the claim fails here rather than attempting a 64 GiB allocation.
TEST_F(TraceStore, ForgedBlockSizeClaimDoesNotSizeBuffers) {
  const AllocTrace t = workload_trace("drr", 1280);
  std::string why;
  ASSERT_TRUE(write_trace_file(t, path_, {}, &why)) << why;
  auto bytes = read_file();
  forge::set_le(&bytes, 24, 4, 0xffffffffu);  // header block_events
  forge::reseal_header(&bytes);
  write_file(bytes);

  const auto m = MappedTrace::open(path_, &why);
  ASSERT_NE(m, nullptr) << why;
  ASSERT_EQ(m->cursor_buffer_bytes(), t.size() * sizeof(AllocEvent));
  EXPECT_TRUE(m->materialize().events() == t.events());
}

// A block (prefix and index entry agreeing, every checksum re-sealed) that
// claims more events than its payload has bytes cannot be genuine, and
// would otherwise inflate event_count() and materialize()'s reserve.
TEST_F(TraceStore, RejectsBlockClaimingMoreEventsThanPayloadBytes) {
  const AllocTrace t = workload_trace("drr", 1280);
  std::string why;
  ASSERT_TRUE(write_trace_file(t, path_, {}, &why)) << why;
  auto bytes = read_file();
  const std::uint32_t forged = 0x7fffffffu;
  forge::set_le(&bytes, 8, 8, forged);        // header event_count
  forge::set_le(&bytes, 24, 4, 0xffffffffu);  // header block_events
  forge::reseal_header(&bytes);
  forge::set_le(&bytes, kTraceHeaderBytes + 4, 4, forged);  // block prefix
  forge::reseal_block(&bytes, kTraceHeaderBytes);
  const std::size_t entry0 = forge::get_le(bytes, 32, 8) + 8;
  forge::set_le(&bytes, entry0 + 16, 4, forged);  // index entry 0 events
  forge::reseal_index(&bytes);
  write_file(bytes);

  const auto m = MappedTrace::open(path_, &why);
  ASSERT_EQ(m, nullptr) << "forged count accepted; event_count() = "
                        << m->event_count();
  EXPECT_NE(why.find("payload"), std::string::npos) << why;
}

// --- Codec edge cases ---------------------------------------------------

TEST(TraceCodec, VarintRoundTripsBoundaryValues) {
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0x7fffffffffffffffull, 0xffffffffffffffffull}) {
    std::vector<std::uint8_t> buf;
    put_varint(&buf, v);
    const std::uint8_t* p = buf.data();
    std::uint64_t got = 0;
    ASSERT_TRUE(get_varint(&p, buf.data() + buf.size(), &got));
    EXPECT_EQ(got, v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(TraceCodec, VarintRejectsTruncationAndOverflow) {
  std::vector<std::uint8_t> buf;
  put_varint(&buf, 0xffffffffffffffffull);
  const std::uint8_t* p = buf.data();
  std::uint64_t got = 0;
  EXPECT_FALSE(get_varint(&p, buf.data() + buf.size() - 1, &got));
  // 11-byte continuation run: more than 64 bits of payload.
  const std::vector<std::uint8_t> wide(11, 0x80u);
  p = wide.data();
  EXPECT_FALSE(get_varint(&p, wide.data() + wide.size(), &got));
}

TEST(TraceCodec, DecodeRejectsTrailingGarbage) {
  std::vector<AllocEvent> ev(3);
  ev[0] = {AllocEvent::Op::kAlloc, 1, 64, 0};
  ev[1] = {AllocEvent::Op::kAlloc, 2, 32, 0};
  ev[2] = {AllocEvent::Op::kFree, 1, 0, 1};
  std::vector<std::uint8_t> payload;
  encode_block(ev.data(), ev.size(), &payload);
  std::vector<AllocEvent> out(3);
  ASSERT_TRUE(
      decode_block(payload.data(), payload.size(), out.size(), out.data()));
  for (std::size_t i = 0; i < ev.size(); ++i) EXPECT_TRUE(out[i] == ev[i]);
  payload.push_back(0);
  EXPECT_FALSE(
      decode_block(payload.data(), payload.size(), out.size(), out.data()));
}

// --- Fingerprint memoization (satellite 1) ------------------------------

TEST(TraceFingerprint, MemoizedValueSurvivesRepeatedCalls) {
  AllocTrace t = workload_trace("drr", 2000);
  const std::uint64_t fp = t.fingerprint();
  EXPECT_EQ(t.fingerprint(), fp);
  EXPECT_EQ(t.fingerprint(), fp);
}

TEST(TraceFingerprint, MutationInvalidatesCache) {
  AllocTrace t;
  t.record_alloc(0, 64, 0);
  const std::uint64_t fp1 = t.fingerprint();
  t.record_alloc(1, 128, 0);
  const std::uint64_t fp2 = t.fingerprint();
  EXPECT_NE(fp1, fp2);
  t.record_free(1, 0);
  EXPECT_NE(t.fingerprint(), fp2);
  // Mutation through the non-const accessor also invalidates.
  AllocTrace u = t;
  EXPECT_EQ(u.fingerprint(), t.fingerprint());
  u.events().pop_back();
  EXPECT_NE(u.fingerprint(), t.fingerprint());
}

TEST(TraceFingerprint, AccumulatorAgreesWithAllocTrace) {
  const AllocTrace t = workload_trace("recon3d");
  core::TraceAccumulator acc;
  for (const AllocEvent& e : t.events()) acc.add(e);
  EXPECT_EQ(acc.fingerprint(), t.fingerprint());
  expect_stats_eq(acc.stats(), t.stats(), "accumulator");
  EXPECT_EQ(acc.id_bounds().max_id, t.id_bounds().max_id);
  EXPECT_EQ(acc.id_bounds().allocs, t.id_bounds().allocs);
}

// --- File-backed search parity ------------------------------------------

TEST_F(TraceStore, FileBackedExplorationIsBitIdenticalToInMemory) {
  const AllocTrace t = write_drr();
  std::string why;
  std::shared_ptr<const MappedTrace> mapped = MappedTrace::open(path_, &why);
  ASSERT_NE(mapped, nullptr) << why;

  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    core::ExplorerOptions opts;
    opts.num_threads = threads;
    core::BeamSearch greedy(1);
    const core::ExplorationResult a = core::run_search(t, greedy, opts);
    const core::ExplorationResult b = core::run_search(*mapped, greedy, opts);

    EXPECT_EQ(a.best, b.best) << threads << " threads";
    EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint)
        << threads << " threads";
    EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs)
        << threads << " threads";
    EXPECT_EQ(a.work_steps, b.work_steps) << threads << " threads";
    EXPECT_EQ(a.feasible, b.feasible) << threads << " threads";
    EXPECT_EQ(a.simulations, b.simulations) << threads << " threads";
    ASSERT_EQ(a.steps.size(), b.steps.size()) << threads << " threads";
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
      EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen)
          << threads << " threads, step " << i;
    }
  }
}

}  // namespace
}  // namespace dmm::trace
