#ifndef DMM_CORE_EVAL_ENGINE_H
#define DMM_CORE_EVAL_ENGINE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/core/cache_snapshot.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"

namespace dmm::core {

/// One candidate evaluation: a complete decision vector plus a caller tag
/// (leaf index, odometer position, ...) for mapping the result back.
struct EvalJob {
  alloc::DmmConfig cfg{};
  std::uint64_t tag = 0;
};

/// What scoring one job produced.  `from_cache` marks evaluations served
/// without a trace replay (memoized, or a duplicate within the batch).
struct EvalOutcome {
  std::uint64_t tag = 0;
  SimResult sim{};
  std::uint64_t work_steps = 0;
  bool from_cache = false;
};

/// The score cache: memoized candidate scores keyed by trace fingerprint x
/// *canonical* decision vector (alloc::canonical) — repaired completions
/// collide often within one greedy walk, and a hit skips a whole trace
/// replay.  It is the only cache implementation: a search with no cache
/// injected opens its session on a private instance (per-search memo, no
/// cross-search hits), while one shared instance can serve every search of
/// a design run (each phase's walk plus the validation passes) and any
/// number of concurrent searches.
///
/// Entries are keyed by trace fingerprint x canonical decision vector, so
/// searches over the same trace reuse each other's replays while distinct
/// traces never collide.  The map is sharded by key hash with one mutex
/// per shard (striped locking): coordinating threads of concurrent
/// searches only contend when they touch the same shard.
///
/// Each search opens a Session, the handle the engine evaluates through.
/// Entries remember which session paid for their replay; a hit served from
/// another session's entry is a *cross-search* hit, which the session
/// counts and ExplorationResult/MethodologyResult report.  Replays are
/// deterministic, so concurrent duplicate inserts are benign: the first
/// write wins and later ones carry identical values.
///
/// The cache also persists across processes: save() snapshots every entry
/// to a versioned binary file (see cache_snapshot.h) and load() imports
/// one, marking imported entries as *persisted* (search id 0).  Hits on
/// persisted entries are accounted separately from cross-search hits —
/// they were paid for by a previous process, not a sibling search — and
/// surface as ExplorationResult::persisted_hits.  A snapshot that is
/// truncated, corrupted, or of another format version is rejected whole
/// and the cache simply starts cold.
class SharedScoreCache {
 public:
  struct Entry {
    SimResult sim{};
    std::uint64_t work_steps = 0;
  };

  static constexpr std::size_t kDefaultShards = 16;

  /// Stored search id marking entries imported from a snapshot (real
  /// sessions are numbered from 1).
  static constexpr std::uint64_t kPersistedSearchId = 0;

  /// Optional growth bound for long-running processes (the dmm_serve
  /// daemon), in live entries; 0 means unbounded.
  struct Limits {
    std::size_t max_entries = 0;
  };

  explicit SharedScoreCache(std::size_t shard_count = kDefaultShards);

  /// Bounded cache: at most capacity() entries stay live, and inserting
  /// past the bound evicts in LRU-ish order.  "LRU-ish" because recency is
  /// tracked per shard — the globally least-recent entry can survive while
  /// a hotter shard is the one at capacity — which keeps eviction a
  /// lock-local operation.  Small bounds collapse to a single shard (see
  /// kMinEntriesPerBoundedShard), where eviction is exact LRU; for a
  /// deterministic operation sequence the evicted set is deterministic
  /// either way.
  explicit SharedScoreCache(const Limits& limits,
                            std::size_t shard_count = kDefaultShards);

  /// A bounded shard never holds fewer than this many entries (except when
  /// the whole budget is smaller).  Hash skew makes an over-split bound
  /// evict long before the cache is globally full — a 64-entry budget cut
  /// into 16 four-entry shards starts evicting at ~20 live entries — so
  /// tight budgets trade striping for exact LRU instead.
  static constexpr std::size_t kMinEntriesPerBoundedShard = 64;

  /// Entry bound this cache enforces (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Whole-cache counters (monotonic; snapshot under the shard locks).
  struct Stats {
    std::uint64_t searches = 0;           ///< sessions opened
    std::uint64_t hits = 0;               ///< lookups served from the map
    std::uint64_t cross_search_hits = 0;  ///< ... paid for by another search
    std::uint64_t persisted_hits = 0;     ///< ... served from snapshot entries
    std::uint64_t insertions = 0;         ///< entries added by searches
    std::uint64_t persisted_entries = 0;  ///< entries imported by load()
    std::uint64_t evictions = 0;          ///< entries displaced by the bound
    std::uint64_t entries = 0;            ///< live entries (== size())
  };

  /// One search's view of the cache; counts the cross-search hits it was
  /// served.  Sessions are cheap, movable, and single-threaded like the
  /// search that owns them.  The engine canonicalizes each job exactly
  /// once and passes that form to both calls, so sessions never
  /// re-canonicalize.
  class Session {
   public:
    /// True (and *out filled) when @p canon has a memoized score.
    [[nodiscard]] bool lookup_canonical(const alloc::DmmConfig& canon,
                                        Entry* out);
    void insert_canonical(const alloc::DmmConfig& canon, const Entry& entry);
    /// True iff @p canon has a memoized score.  A pure probe: no hit is
    /// counted and the LRU order is left alone, so speculation can ask
    /// without disturbing any accounting or eviction.
    [[nodiscard]] bool contains_canonical(
        const alloc::DmmConfig& canon) const;

    /// Hits served from entries another search of this process replayed
    /// (disjoint from persisted_hits()).
    [[nodiscard]] std::uint64_t cross_search_hits() const {
      return cross_search_hits_;
    }

    /// Hits served from entries a snapshot imported — replays a previous
    /// process paid for.
    [[nodiscard]] std::uint64_t persisted_hits() const {
      return persisted_hits_;
    }

   private:
    friend class SharedScoreCache;
    Session(SharedScoreCache* owner, std::uint64_t trace_fingerprint,
            std::uint64_t search_id)
        : owner_(owner),
          trace_fingerprint_(trace_fingerprint),
          search_id_(search_id) {}

    SharedScoreCache* owner_ = nullptr;
    std::uint64_t trace_fingerprint_ = 0;
    std::uint64_t search_id_ = 0;
    std::uint64_t cross_search_hits_ = 0;
    std::uint64_t persisted_hits_ = 0;
  };

  /// Opens a session for one search over the trace with @p trace_fingerprint
  /// (see AllocTrace::fingerprint).
  [[nodiscard]] Session begin_search(std::uint64_t trace_fingerprint);

  /// Imports the snapshot at @p path (implemented in cache_snapshot.cpp).
  /// All-or-nothing: a missing, truncated, corrupted, or version-mismatched
  /// file leaves the cache exactly as it was and reports why — callers can
  /// always proceed cold.  Entries whose key is already cached are skipped,
  /// so re-loading a file (or loading after searches ran) is safe.
  SnapshotLoadResult load(const std::string& path);

  /// Writes every entry to @p path via a uniquely-named temp file and an
  /// atomic rename — concurrent savers last-writer-win, readers never see
  /// a torn file.  Thread-safe (reads shard by shard under the locks).
  SnapshotSaveResult save(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Key {
    std::uint64_t trace_fingerprint = 0;
    alloc::DmmConfig canon{};  ///< already-canonical decision vector
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const {
      return alloc::hash_combine(
          static_cast<std::size_t>(k.trace_fingerprint),
          alloc::hash_value(k.canon));
    }
  };
  struct Stored {
    Entry entry{};
    std::uint64_t search_id = 0;  ///< session that paid for the replay
    /// Position in the shard's recency list; meaningful only when the
    /// cache is bounded (shard.cap > 0).
    std::list<Key>::iterator lru_it{};
  };
  struct Shard {
    mutable std::mutex m;
    std::unordered_map<Key, Stored, KeyHash> map;
    /// Recency order, least-recent first; maintained only when cap > 0.
    std::list<Key> lru;
    std::size_t cap = 0;  ///< entry bound for this shard (0 = unbounded)
  };

  [[nodiscard]] Shard& shard_for(const Key& key);

  /// Inserts under the shard lock, evicting the shard's least-recent entry
  /// when the insert would exceed its bound.  First writer wins; returns
  /// whether the key was newly inserted.  Shared by Session inserts and
  /// snapshot import so both honor the bound identically.
  bool insert_locked(Shard& shard, const Key& key, const Entry& entry,
                     std::uint64_t search_id);

  // Shard count is fixed at construction, so the vector is never resized
  // and Shard addresses stay stable without a global lock.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t capacity_ = 0;  ///< total entry bound (0 = unbounded)
  std::atomic<std::uint64_t> next_search_id_{1};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> cross_search_hits_{0};
  std::atomic<std::uint64_t> persisted_hits_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> persisted_entries_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// Replays @p trace through a manager built from @p job.cfg — one isolated
/// arena per call, so it is safe from any thread.
[[nodiscard]] EvalOutcome score_candidate(const TraceSource& trace,
                                          const EvalJob& job);

// ---------------------------------------------------------------------------
// Multi-trace family evaluation: score one decision vector against a *set*
// of traces instead of overfitting it to a single profiled run.  The engine
// still only ever replays (trace, cfg) pairs — a family evaluation is one
// EvalJob scored against every member and folded by an aggregate objective,
// so every member replay lands in (and is served from) the same per-trace
// score-cache entries the single-trace searches use.
// ---------------------------------------------------------------------------

/// How the per-member scores of one candidate fold into a single objective.
enum class FamilyAggregate : std::uint8_t {
  /// Worst case across the family: peak/avg/final footprints are the
  /// element-wise maximum over members (weights are ignored).  The designed
  /// vector must be provisioned for whichever input mix is hungriest.
  kMaxPeak,
  /// Expected case: footprints are the weighted sum over members (weights
  /// default to 1.0, i.e. a plain sum).  Failed allocations, work, events,
  /// and wall time always sum — feasibility means feasible on *every*
  /// member under either aggregate.
  kWeightedSum,
};

/// One trace of a family evaluation.  The fingerprint is the member's
/// TraceSource::fingerprint, cached by the caller (it keys the per-trace
/// score-cache entries the member's replays share with single-trace
/// searches over the same trace).
struct FamilyEvalMember {
  std::shared_ptr<const TraceSource> trace;
  std::uint64_t fingerprint = 0;
  double weight = 1.0;  ///< kWeightedSum only
};

/// Identity of a trace *set* for score caching: FNV-1a over the member
/// fingerprints (in order), their weight bit patterns, and the aggregate
/// kind.  Aggregated family scores are cached under this fingerprint in the
/// same SharedScoreCache that holds the per-member entries — a different
/// member set, order, weighting, or aggregate never collides, and the
/// snapshot format is unchanged (a family entry is an ordinary
/// fingerprint x canonical-vector record, so kSnapshotVersion needs no
/// bump).
[[nodiscard]] std::uint64_t family_fingerprint(
    const std::vector<FamilyEvalMember>& members, FamilyAggregate aggregate);

/// Folds one candidate's per-member outcomes (one per member, in member
/// order) into the aggregate outcome described by @p aggregate.  The fold
/// is a fixed-order left-to-right pass, so the result is bit-identical
/// regardless of how the member replays were scheduled.  `from_cache` is
/// true iff every member outcome was served from a cache.
[[nodiscard]] EvalOutcome aggregate_family(
    std::uint64_t tag, const std::vector<EvalOutcome>& member_outcomes,
    const std::vector<FamilyEvalMember>& members, FamilyAggregate aggregate);

/// The seam every evaluation backend plugs into.  The primitive is a
/// *streaming session*: the search opens one per candidate wave
/// (stream_begin), submits jobs as it generates them (stream_submit), and
/// collects every outcome at the barrier (stream_drain).  evaluate() is
/// the batch entry point, begin + submit-all + drain — outcomes come back
/// in job order, bit-identical across engines and thread counts.
///
/// The base class owns the caching protocol on the coordinating thread so
/// all engines agree on it: each job is canonicalized exactly once at
/// submit, cache lookups and in-session deduplication happen against that
/// canonical form before anything is dispatched, only unique misses reach
/// the workers, and results are inserted back in submit order as they are
/// emitted.  That makes `from_cache` (and hence a search's
/// simulations/cache_hits accounting) a function of the job stream and
/// prior cache contents alone — never of thread count or scheduling.
///
/// Overlap comes from dispatch() being asynchronous in pooled engines: the
/// search thread keeps generating/submitting candidates while workers
/// replay earlier ones.
///
/// Speculation: hint() hands the engine a job the search *expects* to
/// submit later.  Pooled engines replay hints on workers that have no real
/// job queued, and a later kRun submit of the same trace and canonical
/// vector adopts the hint instead of replaying.  Hints never touch the
/// score cache, the session's accounting, or the emission order: an
/// adopted result is emitted, cached, and counted exactly as a fresh
/// replay of the submitted job would be.
class EvalEngine {
 public:
  virtual ~EvalEngine() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Worker parallelism (1 for the serial engine).
  [[nodiscard]] virtual unsigned threads() const { return 1; }

  /// Scores every job; outcomes are returned in job order.  @p cache is
  /// the search's score-cache session, or null (every job then replays).
  [[nodiscard]] std::vector<EvalOutcome> evaluate(
      const TraceSource& trace, const std::vector<EvalJob>& jobs,
      SharedScoreCache::Session* cache = nullptr);

  /// Opens a streaming session.  One session at a time per engine; the
  /// trace and cache must outlive it.
  void stream_begin(const TraceSource& trace,
                    SharedScoreCache::Session* cache = nullptr);
  /// Submits one job to the open session (cache lookup + dedup happen now,
  /// misses start evaluating immediately on pooled engines).
  void stream_submit(const EvalJob& job);
  /// Blocks until every submitted job is done, emits every outcome (in
  /// submit order), and closes the session.
  [[nodiscard]] std::vector<EvalOutcome> stream_drain();

  /// Queues @p job on @p trace for speculative replay (FIFO).  Skipped
  /// when @p cache already holds its canonical vector, when it is already
  /// hinted, or when it is in flight in the open session on @p trace.
  /// No-op without a cache session and on engines without idle workers
  /// (SerialEngine).  The trace must stay alive until settle_hints().
  void hint(const TraceSource& trace, const EvalJob& job,
            SharedScoreCache::Session* cache);
  /// Forgets every hint no worker has started yet.
  virtual void drop_hints() {}
  /// Drops queued hints and waits for running ones; afterwards no hint
  /// references any trace.  Call before a hinted trace is destroyed.
  virtual void settle_hints() {}

  /// Speculation counters — a side channel for benches and tests that
  /// never feeds a result.
  struct HintStats {
    std::uint64_t queued = 0;   ///< hints accepted by hint()
    std::uint64_t started = 0;  ///< ... a worker began replaying
    std::uint64_t adopted = 0;  ///< ... a submitted job took over
  };
  [[nodiscard]] virtual HintStats hint_stats() const { return {}; }

 protected:
  /// One submitted job's lifecycle inside a session.  Slots live in
  /// unique_ptrs, so their addresses are stable across submits and safe to
  /// hand to workers.
  struct StreamSlot {
    EvalJob job{};
    alloc::DmmConfig canon{};
    enum class Kind : std::uint8_t { kRun, kCached, kDup } kind = Kind::kRun;
    std::size_t dup_of = 0;  ///< owner slot index when kind == kDup
    EvalOutcome out{};
    std::atomic<bool> done{false};
  };

  /// Starts computing slot.out for a kRun slot.  The default runs compute()
  /// inline on the calling thread; pooled engines enqueue instead.
  virtual void dispatch(StreamSlot& slot);
  /// Blocks until slot.done (default: no-op — inline dispatch completed).
  virtual void wait_slot(StreamSlot& slot);

  /// Queues a hint whose canonical form passed hint()'s checks (default:
  /// ignored — there is no idle worker to run it).
  virtual void enqueue_hint(const TraceSource& /*trace*/,
                            const EvalJob& /*job*/,
                            const alloc::DmmConfig& /*canon*/) {}
  /// A kRun slot of the session on @p trace is about to be dispatched:
  /// true iff a finished or running hint now completes it.  A matching
  /// queued hint is removed (the slot then dispatches normally).
  virtual bool adopt_hint(const TraceSource& /*trace*/,
                          StreamSlot& /*slot*/) {
    return false;
  }

  /// Scores one job against the session trace (score_candidate).  Safe
  /// from any thread during a session.
  [[nodiscard]] EvalOutcome compute(const EvalJob& job) const;

 private:
  // Session state (coordinating thread only, except slot outs/done flags).
  std::vector<std::unique_ptr<StreamSlot>> slots_;
  std::unordered_map<alloc::DmmConfig, std::size_t, alloc::DmmConfigHash>
      pending_canon_;
  const TraceSource* stream_trace_ = nullptr;
  SharedScoreCache::Session* stream_cache_ = nullptr;
  bool streaming_ = false;
};

/// In-thread reference engine: dispatch computes inline (the base default),
/// so a session's jobs are evaluated synchronously at submit.
class SerialEngine : public EvalEngine {
 public:
  [[nodiscard]] std::string name() const override { return "serial"; }
};

/// Persistent std::thread pool over one FIFO job queue.
///
/// dispatch() appends the slot to the queue and returns, so the
/// coordinating thread overlaps candidate generation with evaluation.
/// Idle workers take the oldest queued job — candidate replays vary wildly
/// in cost (a config that thrashes the free index replays 10x slower), and
/// a shared queue hands the next job to whichever worker frees up first.
/// Outcomes land in the submitting session's slots, keeping result order
/// deterministic.
///
/// A worker that finds the job queue empty takes the oldest queued hint.
/// Adoption at submit: a finished hint's outcome is copied into the slot;
/// a running one completes the slot when it finishes; a queued one is
/// withdrawn and the slot dispatched as usual.
class ThreadPoolEngine : public EvalEngine {
 public:
  /// @param num_threads  worker count; 0 = one per hardware thread.
  explicit ThreadPoolEngine(unsigned num_threads = 0);
  ~ThreadPoolEngine() override;

  ThreadPoolEngine(const ThreadPoolEngine&) = delete;
  ThreadPoolEngine& operator=(const ThreadPoolEngine&) = delete;

  [[nodiscard]] std::string name() const override { return "thread-pool"; }
  [[nodiscard]] unsigned threads() const override {
    return static_cast<unsigned>(workers_.size());
  }

  void drop_hints() override;
  void settle_hints() override;
  [[nodiscard]] HintStats hint_stats() const override;

 protected:
  void dispatch(StreamSlot& slot) override;
  void wait_slot(StreamSlot& slot) override;
  void enqueue_hint(const TraceSource& trace, const EvalJob& job,
                    const alloc::DmmConfig& canon) override;
  bool adopt_hint(const TraceSource& trace, StreamSlot& slot) override;

 private:
  /// One speculative replay.  Lives in hints_ from enqueue_hint() until it
  /// is adopted, dropped, or settled; every field is guarded by m_ except
  /// `out`, which only the running worker writes before publishing kDone.
  struct Hint {
    const TraceSource* trace = nullptr;
    EvalJob job{};
    alloc::DmmConfig canon{};
    enum class State : std::uint8_t { kQueued, kRunning, kDone };
    State state = State::kQueued;
    EvalOutcome out{};
    /// Slot waiting on this running hint (adopted mid-replay), or null.
    StreamSlot* adopter = nullptr;
  };

  void worker_main();
  /// Replays @p hint on the calling worker and publishes the outcome.
  void run_hint(Hint& hint);
  /// Erases every queued hint (caller holds m_).
  void drop_queued_locked();

  // Job queue and wakeup state, guarded by m_.
  mutable std::mutex m_;
  std::condition_variable work_ready_;
  std::condition_variable done_cv_;
  std::deque<StreamSlot*> queue_;  ///< dispatched slots, oldest first
  bool stop_ = false;
  /// Speculation state, guarded by m_: every live hint, the queued ones in
  /// FIFO order, and how many a worker is replaying.
  std::list<Hint> hints_;
  std::deque<Hint*> hint_queue_;
  std::size_t running_hints_ = 0;
  HintStats hint_stats_{};

  std::vector<std::thread> workers_;
};

/// Engine factory for ExplorerOptions::num_threads: 1 thread = serial,
/// otherwise a pool (0 = hardware concurrency).
[[nodiscard]] std::unique_ptr<EvalEngine> make_engine(unsigned num_threads);

}  // namespace dmm::core

#endif  // DMM_CORE_EVAL_ENGINE_H
