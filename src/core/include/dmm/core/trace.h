#ifndef DMM_CORE_TRACE_H
#define DMM_CORE_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace dmm::core {

/// One dynamic-memory event of an application run.
struct AllocEvent {
  enum class Op : std::uint8_t { kAlloc, kFree };
  Op op = Op::kAlloc;
  std::uint32_t id = 0;    ///< object id; alloc/free pairs share it
  std::uint32_t size = 0;  ///< requested bytes (alloc events only)
  std::uint16_t phase = 0; ///< logical application phase (Sec. 3.3)
};

inline bool operator==(const AllocEvent& a, const AllocEvent& b) {
  return a.op == b.op && a.id == b.id && a.size == b.size &&
         a.phase == b.phase;
}

/// Aggregate DM behaviour of a trace — what the paper calls "profiling the
/// DM behaviour of the application" before taking the tree decisions.
struct TraceStats {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::size_t peak_live_bytes = 0;
  std::size_t peak_live_blocks = 0;
  std::size_t distinct_sizes = 0;
  std::uint32_t min_size = 0;
  std::uint32_t max_size = 0;
  double mean_size = 0.0;
  double mean_lifetime_events = 0.0;  ///< alloc->free distance in events
  std::uint16_t phases = 1;
  /// allocation counts per power-of-two size class index
  std::map<unsigned, std::uint64_t> class_histogram;
  /// top allocation sizes by count (size -> count), at most 16 entries
  std::map<std::uint32_t, std::uint64_t> top_sizes;
};

/// Id-space summary the simulator uses to size its live-object map before
/// replaying: dense ids get a flat vector, sparse ids a hash map.  In-memory
/// traces derive it with one scan; mapped traces read it from the header.
struct TraceIdBounds {
  /// largest id appearing in any event
  std::uint32_t max_id = 0;
  /// number of alloc events
  std::uint64_t allocs = 0;

  /// True iff the id space is within 2x of the alloc count, so a flat
  /// table indexed by id wastes at most about half its slots.  Traces the
  /// workloads record number objects densely from 0.
  [[nodiscard]] bool dense() const {
    return static_cast<std::uint64_t>(max_id) + 1 <= 2 * allocs + 16;
  }
};

/// Streams a trace's events in order as contiguous runs.  Cursors are
/// cheap, single-threaded, and independent: concurrent replays each take
/// their own cursor from the (immutable, shareable) TraceSource.
class TraceCursor {
 public:
  virtual ~TraceCursor() = default;

  /// Yields the next contiguous run of events: sets @p run and returns its
  /// length, or returns 0 at end of stream.  The pointed-to events stay
  /// valid until the next call on this cursor (or its destruction).
  virtual std::size_t next(const AllocEvent** run) = 0;
};

/// Read interface every replay consumer works against: the in-memory
/// AllocTrace serves its vector as one run; MappedTrace (dmm/trace/) decodes
/// fixed-size blocks on demand so replay memory is O(block) regardless of
/// trace length.  Identity (fingerprint) and profiling (stats) are part of
/// the interface so file-backed traces can answer both in O(1) from their
/// header.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  [[nodiscard]] virtual std::uint64_t event_count() const = 0;

  /// FNV-1a over the full event stream (op, id, size, phase), with the
  /// event count folded in last so streaming writers can compute it in one
  /// pass: the trace's identity for cross-search score caching.
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;

  /// Aggregate behaviour.  O(events) for in-memory traces, O(1) from the
  /// header for mapped ones.
  [[nodiscard]] virtual TraceStats stats() const = 0;

  /// Id-space summary for the simulator's live-map sizing pre-pass.
  [[nodiscard]] virtual TraceIdBounds id_bounds() const = 0;

  /// A fresh cursor positioned at event 0.
  [[nodiscard]] virtual std::unique_ptr<TraceCursor> cursor() const = 0;
};

/// Shared single-pass folder for fingerprint, stats, and id bounds: the
/// in-memory trace, the streaming trace writer, and the capture shim all
/// feed events through one of these so every producer agrees bit-for-bit
/// on identity and profile.
class TraceAccumulator {
 public:
  void add(const AllocEvent& e);

  /// Fingerprint of the events added so far (count folded in last).
  [[nodiscard]] std::uint64_t fingerprint() const;
  /// Stats of the events added so far (finalised copy; reusable).
  [[nodiscard]] TraceStats stats() const;
  [[nodiscard]] TraceIdBounds id_bounds() const {
    return {max_id_, partial_.allocs};
  }
  [[nodiscard]] std::uint64_t events() const { return partial_.events; }

 private:
  TraceStats partial_;
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::uint32_t max_id_ = 0;
  std::uint16_t max_phase_ = 0;
  std::size_t live_bytes_ = 0;
  double size_sum_ = 0.0;
  double lifetime_sum_ = 0.0;
  std::uint64_t lifetime_n_ = 0;
  /// id -> (size, alloc event index)
  std::unordered_map<std::uint32_t, std::pair<std::uint32_t, std::uint64_t>>
      live_;
  std::unordered_map<std::uint32_t, std::uint64_t> by_size_;
};

/// A recorded allocation trace: the exploration engine's workload input,
/// fully resident in memory.
///
/// Traces are well-formed: every free refers to a previously allocated,
/// not-yet-freed id.  validate() checks this (tests and loaders use it).
class AllocTrace : public TraceSource {
 public:
  AllocTrace() = default;
  AllocTrace(const AllocTrace& o) : events_(o.events_) { copy_memos(o); }
  AllocTrace(AllocTrace&& o) noexcept : events_(std::move(o.events_)) {
    copy_memos(o);
  }
  AllocTrace& operator=(const AllocTrace& o) {
    if (this != &o) {
      events_ = o.events_;
      copy_memos(o);
    }
    return *this;
  }
  AllocTrace& operator=(AllocTrace&& o) noexcept {
    events_ = std::move(o.events_);
    copy_memos(o);
    return *this;
  }

  void record_alloc(std::uint32_t id, std::uint32_t size,
                    std::uint16_t phase = 0) {
    invalidate_memos();
    events_.push_back({AllocEvent::Op::kAlloc, id, size, phase});
  }
  void record_free(std::uint32_t id, std::uint16_t phase = 0) {
    invalidate_memos();
    events_.push_back({AllocEvent::Op::kFree, id, 0, phase});
  }

  [[nodiscard]] const std::vector<AllocEvent>& events() const {
    return events_;
  }
  /// Mutable access drops the memoized pre-passes — the caller may edit.
  [[nodiscard]] std::vector<AllocEvent>& events() {
    invalidate_memos();
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Appends all events of @p other (ids are offset to stay unique).
  void append(const AllocTrace& other, std::uint16_t phase_offset = 0);

  /// Frees every id still live at the end (teardown); keeps traces
  /// replayable in a loop.
  void close_leaks();

  /// Keeps the first @p max_events events (0 = all) and closes the leaks
  /// the cut introduced, so the shortened trace stays replayable.
  void truncate(std::size_t max_events);

  /// True iff every free matches a live alloc and ids are not reused
  /// while live.
  [[nodiscard]] bool validate(std::string* why = nullptr) const;

  /// Aggregate behaviour (single pass).
  [[nodiscard]] TraceStats stats() const override;

  /// FNV-1a over the full event stream (op, id, size, phase): the trace's
  /// identity for cross-search score caching — two traces with the same
  /// events share replays, traces that differ anywhere never collide.
  /// Memoized: the first call pays O(events), later calls are O(1) until a
  /// mutating accessor invalidates the cache.
  [[nodiscard]] std::uint64_t fingerprint() const override;

  [[nodiscard]] std::uint64_t event_count() const override {
    return events_.size();
  }
  /// Memoized like fingerprint(): every replay sizes its live table from
  /// this, so only the first pays the O(events) scan.
  [[nodiscard]] TraceIdBounds id_bounds() const override;
  [[nodiscard]] std::unique_ptr<TraceCursor> cursor() const override;

 private:
  void invalidate_memos() {
    fp_valid_.store(false, std::memory_order_relaxed);
    bounds_valid_.store(false, std::memory_order_relaxed);
  }
  void copy_memos(const AllocTrace& o) {
    fp_cache_.store(o.fp_cache_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    fp_valid_.store(o.fp_valid_.load(std::memory_order_acquire),
                    std::memory_order_release);
    bounds_max_id_.store(o.bounds_max_id_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    bounds_allocs_.store(o.bounds_allocs_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    bounds_valid_.store(o.bounds_valid_.load(std::memory_order_acquire),
                        std::memory_order_release);
  }

  std::vector<AllocEvent> events_;
  /// Memoized fingerprint and id bounds: values + valid flags,
  /// release/acquire paired so concurrent readers of an immutable trace
  /// never see a torn memo.
  mutable std::atomic<std::uint64_t> fp_cache_{0};
  mutable std::atomic<bool> fp_valid_{false};
  mutable std::atomic<std::uint32_t> bounds_max_id_{0};
  mutable std::atomic<std::uint64_t> bounds_allocs_{0};
  mutable std::atomic<bool> bounds_valid_{false};
};

}  // namespace dmm::core

#endif  // DMM_CORE_TRACE_H
