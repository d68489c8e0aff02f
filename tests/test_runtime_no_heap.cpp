// The runtime front's malloc/free path draws nothing from the system heap
// once warm: its pointer bookkeeping is the block table over the arena
// slab, and its thread caches keep the vectors they have grown.  This
// binary replaces global operator new/delete with counting versions (the
// replacement reaches no other test executable), replays DRR traffic
// through one front twice and requires the second replay to make no
// operator new call, with thread caches on and off, and with two threads
// taking turns on one front (whose bins then take a shared front's deeper
// cap and whose misses refill them).  A warm front driven past its arena
// high-water mark makes none either: the arena's page map grows into
// reserved address space, not on the heap.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/core/trace.h"
#include "dmm/runtime/designed_allocator.h"
#include "dmm/workloads/workload.h"

namespace {

std::atomic<std::uint64_t> g_new_calls{0};

void* counted_new(std::size_t bytes) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_new(std::size_t bytes, std::align_val_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (std::max<std::size_t>(bytes, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

/// Out of line, so the compiler never pairs an inlined operator new with
/// this std::free and warns of a mismatch.
[[gnu::noinline]] void counted_delete(void* p) noexcept { std::free(p); }

}  // namespace

// The other forms (array, nothrow) forward to these in the standard
// library, so every operator new in the process is counted once.
void* operator new(std::size_t bytes) { return counted_new(bytes); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_aligned_new(bytes, align);
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  counted_delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_delete(p);
}

namespace dmm::runtime {
namespace {

/// A trace decoded into slot-indexed calls, so a replay needs no map.
struct SlotOp {
  std::uint32_t slot;
  std::uint32_t size;  ///< 0 = free
};

std::vector<SlotOp> decode(const core::AllocTrace& trace,
                           std::uint32_t* slots) {
  std::vector<SlotOp> ops;
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of;
  *slots = 0;
  for (const core::AllocEvent& e : trace.events()) {
    if (e.op == core::AllocEvent::Op::kAlloc) {
      slot_of[e.id] = *slots;
      ops.push_back({(*slots)++, std::max<std::uint32_t>(e.size, 1)});
    } else if (const auto it = slot_of.find(e.id); it != slot_of.end()) {
      ops.push_back({it->second, 0});
      slot_of.erase(it);
    }
  }
  // Blocks the trace never frees are freed at the end, in slot order.
  std::vector<std::uint32_t> leaked;
  for (const auto& [id, slot] : slot_of) leaked.push_back(slot);
  std::sort(leaked.begin(), leaked.end());
  for (const std::uint32_t slot : leaked) ops.push_back({slot, 0});
  return ops;
}

/// Replays @p ops through @p front and returns the operator new calls the
/// replay made.
std::uint64_t heap_calls_of_replay(const std::vector<SlotOp>& ops,
                                   std::vector<void*>& slots,
                                   DesignedAllocator& front) {
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (const SlotOp& op : ops) {
    if (op.size != 0) {
      slots[op.slot] = front.malloc(op.size);
    } else {
      front.free(slots[op.slot]);
    }
  }
  return g_new_calls.load(std::memory_order_relaxed) - before;
}

void expect_warm_replay_makes_no_heap_calls(const RuntimeOptions& opts) {
  const core::AllocTrace trace =
      workloads::record_trace(workloads::case_study("drr"), /*seed=*/1);
  std::uint32_t slot_count = 0;
  const std::vector<SlotOp> ops = decode(trace, &slot_count);
  std::vector<void*> slots(slot_count, nullptr);

  DesignedAllocator front(alloc::drr_paper_config(), opts);
  const std::uint64_t warm_up = heap_calls_of_replay(ops, slots, front);
  EXPECT_EQ(heap_calls_of_replay(ops, slots, front), 0u)
      << "the warm-up replay made " << warm_up << " calls";
  EXPECT_EQ(front.telemetry().bytes_live, 0u);
}

TEST(RuntimeNoHeap, WarmReplayWithCachesOnMakesNoOperatorNewCall) {
  expect_warm_replay_makes_no_heap_calls(RuntimeOptions{});
}

TEST(RuntimeNoHeap, WarmReplayWithCachesOffMakesNoOperatorNewCall) {
  RuntimeOptions opts;
  opts.thread_cache_bytes = 0;
  expect_warm_replay_makes_no_heap_calls(opts);
}

TEST(RuntimeNoHeap, SharedFrontWarmReplayMakesNoOperatorNewCall) {
  // Two threads take turns replaying the traffic through one front, each
  // twice, and stay on its roster to the end.  Thread 0's first pass runs
  // alone, so its bins grow under the one-thread cap; from its second pass
  // on the front is shared and its bins take the deeper cap without
  // growing again.  Turns keep the core's call sequence, and so every
  // chunk and block it grants, the same from run to run.
  constexpr unsigned kThreads = 2;
  constexpr unsigned kPasses = 2;
  const core::AllocTrace trace =
      workloads::record_trace(workloads::case_study("drr"), /*seed=*/1);
  std::uint32_t slot_count = 0;
  const std::vector<SlotOp> ops = decode(trace, &slot_count);
  DesignedAllocator front(alloc::drr_paper_config());
  std::barrier turn(kThreads);
  std::array<std::array<std::uint64_t, kThreads>, kPasses> calls{};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<void*> slots(slot_count, nullptr);
      for (unsigned pass = 0; pass < kPasses; ++pass) {
        for (unsigned turn_of = 0; turn_of < kThreads; ++turn_of) {
          if (turn_of == t) {
            calls[pass][t] = heap_calls_of_replay(ops, slots, front);
          }
          turn.arrive_and_wait();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(calls[1][t], 0u)
        << "thread " << t << ": the warm-up replay made " << calls[0][t]
        << " calls";
  }
  EXPECT_EQ(front.telemetry().bytes_live, 0u);
}

TEST(RuntimeNoHeap, WarmFrontReachingANewArenaHighMakesNoOperatorNewCall) {
  // After a warm replay, the thread holds four times the replay's peak in
  // 2 KB blocks: every new chunk extends the arena's bump frontier, and so
  // its page map, past anything seen.
  const core::AllocTrace trace =
      workloads::record_trace(workloads::case_study("drr"), /*seed=*/1);
  std::uint32_t slot_count = 0;
  const std::vector<SlotOp> ops = decode(trace, &slot_count);
  std::vector<void*> slots(slot_count, nullptr);
  DesignedAllocator front(alloc::drr_paper_config());
  (void)heap_calls_of_replay(ops, slots, front);
  const std::size_t warm_peak = front.telemetry().arena.peak_footprint;
  constexpr std::size_t kBlock = 2048;
  const std::size_t blocks = 4 * warm_peak / kBlock;
  std::vector<void*> held;
  held.reserve(blocks);
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  while (held.size() < blocks) {
    held.push_back(front.malloc(kBlock));
    ASSERT_NE(held.back(), nullptr);
  }
  const std::uint64_t calls =
      g_new_calls.load(std::memory_order_relaxed) - before;
  EXPECT_GT(front.telemetry().arena.peak_footprint, 2 * warm_peak);
  EXPECT_EQ(calls, 0u);
  for (void* p : held) front.free(p);
}

/// Where TheCounterSeesOperatorNew parks its block, so the compiler
/// cannot elide the new/delete pair.
std::vector<int>* volatile g_sink = nullptr;

TEST(RuntimeNoHeap, TheCounterSeesOperatorNew) {
  // Guards the tests above against a replacement that never runs.
  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  g_sink = new std::vector<int>(100);
  delete g_sink;
  EXPECT_EQ(g_new_calls.load(std::memory_order_relaxed) - before, 2u);
}

}  // namespace
}  // namespace dmm::runtime
