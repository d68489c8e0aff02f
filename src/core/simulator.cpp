#include "dmm/core/simulator.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace dmm::core {

namespace {

struct LiveObj {
  void* ptr;
  std::uint32_t size;
};

/// Each thread's dense live-object table, lent to one replay at a time.
/// A DRR replay needs 1.27 MB of it; allocating that per replay left
/// glibc's per-thread arenas each retaining two freed tables, split by the
/// small allocations in between.
thread_local std::vector<LiveObj> t_spare_table;

/// Live-object map with a dense-id flat-vector fast path.
///
/// Traces recorded by the workloads number objects densely from 0, so the
/// common case is a direct-indexed vector (ptr == nullptr marks an empty
/// slot; a successful allocation is never null).  Sparse or adversarial id
/// spaces fall back to the hash map the simulator always used.  Both paths
/// preserve the exact duplicate-id semantics of the original map code:
/// emplace keeps the first pointer, lookups miss on absent ids.
///
/// The dense vector is the thread's spare table, taken on construction and
/// handed back on destruction, so a thread reuses one allocation across
/// replays (a nested replay on the same thread finds the spare taken and
/// allocates its own).
class LiveMap {
 public:
  LiveMap(bool dense, std::uint32_t max_id) : dense_(dense) {
    if (dense_) {
      flat_.swap(t_spare_table);
      flat_.assign(static_cast<std::size_t>(max_id) + 1, LiveObj{nullptr, 0});
    } else {
      map_.reserve(1024);
    }
  }
  ~LiveMap() {
    if (dense_ && flat_.capacity() > t_spare_table.capacity()) {
      flat_.swap(t_spare_table);
    }
  }
  LiveMap(const LiveMap&) = delete;
  LiveMap& operator=(const LiveMap&) = delete;

  void emplace(std::uint32_t id, void* ptr, std::uint32_t size) {
    if (dense_) {
      LiveObj& slot = flat_[id];
      if (slot.ptr == nullptr) slot = {ptr, size};
      return;
    }
    map_.emplace(id, LiveObj{ptr, size});
  }

  [[nodiscard]] LiveObj* find(std::uint32_t id) {
    if (dense_) {
      if (id >= flat_.size() || flat_[id].ptr == nullptr) return nullptr;
      return &flat_[id];
    }
    auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }

  void erase(std::uint32_t id) {
    if (dense_) {
      flat_[id].ptr = nullptr;
    } else {
      map_.erase(id);
    }
  }

  /// Live pointers in ascending id order (the teardown order).
  [[nodiscard]] std::vector<void*> ptrs_by_id() const {
    std::vector<void*> out;
    if (dense_) {
      for (const LiveObj& obj : flat_) {
        if (obj.ptr != nullptr) out.push_back(obj.ptr);
      }
      return out;
    }
    std::vector<std::pair<std::uint32_t, void*>> by_id;
    by_id.reserve(map_.size());
    // dmm-lint: allow(unordered-iter): sorted by id directly below
    for (const auto& [id, obj] : map_) by_id.emplace_back(id, obj.ptr);
    std::sort(by_id.begin(), by_id.end());
    out.reserve(by_id.size());
    for (const auto& [id, ptr] : by_id) out.push_back(ptr);
    return out;
  }

 private:
  bool dense_;
  std::vector<LiveObj> flat_;
  std::unordered_map<std::uint32_t, LiveObj> map_;
};

}  // namespace

SimResult simulate(const TraceSource& trace, alloc::Allocator& manager,
                   std::vector<TimelinePoint>* timeline,
                   std::uint64_t timeline_stride) {
  SimResult r;
  const sysmem::SystemArena& arena = manager.arena();

  // Dense-id sizing pre-pass: in-memory traces answer with one linear
  // scan (far cheaper than the replay it sizes), mapped traces straight
  // from their header.
  const TraceIdBounds bounds = trace.id_bounds();
  LiveMap live(bounds.dense(), bounds.max_id);

  double footprint_sum = 0.0;
  std::size_t live_bytes = 0;
  std::uint16_t current_phase = 0;

  // The replay walks the source through a block cursor: in-memory traces
  // hand back their whole vector as one run, mapped traces one decoded
  // block at a time — so peak replay memory stays O(block), independent
  // of trace length.
  std::unique_ptr<TraceCursor> cur = trace.cursor();

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t remaining = trace.event_count();
  const AllocEvent* run = nullptr;
  std::size_t run_len = 0;
  while (remaining > 0) {
    if (run_len == 0) {
      run_len = cur->next(&run);
      // A short source never happens when the cursor honours
      // event_count(); the guard keeps corruption from looping forever.
      if (run_len == 0) break;
      if (run_len > remaining) run_len = static_cast<std::size_t>(remaining);
    }
    const AllocEvent& e = *run++;
    --run_len;
    --remaining;
    if (e.phase != current_phase) {
      current_phase = e.phase;
      manager.set_phase(current_phase);
    }
    if (e.op == AllocEvent::Op::kAlloc) {
      void* p = manager.allocate(e.size);
      if (p == nullptr) {
        ++r.failed_allocs;
      } else {
        live.emplace(e.id, p, e.size);
        live_bytes += e.size;
        if (live_bytes > r.peak_live_bytes) r.peak_live_bytes = live_bytes;
      }
    } else {
      LiveObj* obj = live.find(e.id);
      if (obj != nullptr) {
        manager.deallocate(obj->ptr);
        live_bytes -= obj->size;
        live.erase(e.id);
      }
    }
    const std::size_t fp = arena.footprint();
    footprint_sum += static_cast<double>(fp);
    if (fp > r.peak_footprint) r.peak_footprint = fp;
    ++r.events;
    if (timeline != nullptr && timeline_stride != 0 &&
        (r.events % timeline_stride) == 0) {
      timeline->push_back({r.events, fp, manager.stats().live_bytes});
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.final_footprint = arena.footprint();
  r.avg_footprint =
      r.events > 0 ? footprint_sum / static_cast<double>(r.events) : 0.0;
  if (timeline != nullptr) {
    timeline->push_back(
        {r.events, r.final_footprint, manager.stats().live_bytes});
  }
  // Tear down whatever the trace leaked so the manager can be destroyed
  // cleanly (traces are normally closed; this is a guard).  Id order keeps
  // the sweep — and the work it charges — independent of the live-map
  // backend.
  for (void* p : live.ptrs_by_id()) manager.deallocate(p);
  return r;
}

SimResult simulate_fresh(
    const TraceSource& trace,
    const std::function<std::unique_ptr<alloc::Allocator>(
        sysmem::SystemArena&)>& factory,
    std::vector<TimelinePoint>* timeline, std::uint64_t timeline_stride) {
  sysmem::SystemArena arena;
  auto manager = factory(arena);
  return simulate(trace, *manager, timeline, timeline_stride);
}

}  // namespace dmm::core
