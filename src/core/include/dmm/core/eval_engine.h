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

/// The evaluation engine.  The primitive is a *streaming session*: the
/// search opens one per candidate wave (stream_begin), submits jobs as it
/// generates them (stream_submit), and collects every outcome at the
/// barrier (stream_drain).  evaluate() is the batch entry point, begin +
/// submit-all + drain — outcomes come back in job order, bit-identical at
/// every worker count.
///
/// Every unfinished replay is one entry of the in-flight table, keyed by
/// (trace, canonical vector), and one FIFO queue feeds the entries to the
/// workers: the replays a session needs first, then hints.  The caching
/// protocol runs on the coordinating thread: each job is canonicalized
/// exactly once at submit and looked up in the score cache; a miss joins
/// its key's entry or creates one.  The session's first joiner owns the
/// replay and is charged as a simulation, later joiners are duplicates
/// served with `from_cache`, and owners insert their scores into the cache
/// as they are emitted, in submit order.  That makes `from_cache` (and
/// hence a search's simulations/cache_hits accounting) a function of the
/// job stream and prior cache contents alone — never of worker count or
/// scheduling.  Without a cache session every job replays: nothing is
/// canonicalized and the table is not consulted.
///
/// With more than one worker the replays run on a persistent std::thread
/// pool while the coordinating thread keeps generating candidates.  Idle
/// workers take the oldest queued entry — candidate replays vary wildly in
/// cost (a config that thrashes the free index replays 10x slower), and a
/// shared queue hands the next one to whichever worker frees up first.
/// With one worker a submit replays inline.
///
/// Speculation: hint() hands the engine a job the search *expects* to
/// submit later.  It becomes an entry no session needs, at the back of the
/// queue, so a worker replays it only when no needed replay waits.  A
/// submit that finds it promotes it: a queued hint moves to the tail of the
/// needed replays, a running or finished one is adopted.  Hints never touch
/// the score cache, the session's accounting, or the emission order: an
/// adopted result is emitted, cached, and counted exactly as a fresh
/// replay of the submitted job would be.
class EvalEngine {
 public:
  /// @param num_threads  worker count; 1 = replay inline at submit, 0 = one
  ///                     per hardware thread.
  explicit EvalEngine(unsigned num_threads);
  virtual ~EvalEngine();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  /// Worker parallelism (1 when replays run inline).
  [[nodiscard]] unsigned threads() const {
    return workers_.empty() ? 1 : static_cast<unsigned>(workers_.size());
  }

  /// Scores every job; outcomes are returned in job order.  @p cache is
  /// the search's score-cache session, or null (every job then replays).
  [[nodiscard]] std::vector<EvalOutcome> evaluate(
      const TraceSource& trace, const std::vector<EvalJob>& jobs,
      SharedScoreCache::Session* cache = nullptr);

  /// Opens a streaming session.  One session at a time per engine; the
  /// trace and cache must outlive it.
  void stream_begin(const TraceSource& trace,
                    SharedScoreCache::Session* cache = nullptr);
  /// Submits one job to the open session (cache lookup and the join happen
  /// now; a fresh replay starts at once, on a worker or inline).
  void stream_submit(const EvalJob& job);
  /// Blocks until every submitted job is done, emits every outcome (in
  /// submit order), and closes the session.
  [[nodiscard]] std::vector<EvalOutcome> stream_drain();

  /// Queues @p job on @p trace for speculative replay (FIFO).  Skipped
  /// when @p cache already holds its canonical vector, or when the table
  /// already has it (hinted before, or in flight in the open session).
  /// No-op without a cache session and with one worker.  The trace must
  /// stay alive until settle_hints().
  void hint(const TraceSource& trace, const EvalJob& job,
            SharedScoreCache::Session* cache);
  /// Forgets every hint no worker has started yet.
  void drop_hints();
  /// Drops queued hints and waits for running ones; afterwards no hint
  /// references any trace.  Call before a hinted trace is destroyed.
  void settle_hints();

  /// Speculation counters — a side channel for benches and tests that
  /// never feeds a result.
  struct HintStats {
    std::uint64_t queued = 0;   ///< hints accepted by hint()
    std::uint64_t started = 0;  ///< ... a worker began replaying
    std::uint64_t adopted = 0;  ///< ... a submitted job took over
  };
  [[nodiscard]] HintStats hint_stats() const;

 protected:
  /// The replay: scores @p job against @p trace (score_candidate).  Runs
  /// on a worker, or inline at submit with one worker; overridden only to
  /// observe which vectors are replayed.
  [[nodiscard]] virtual EvalOutcome compute(const TraceSource& trace,
                                            const EvalJob& job);

 private:
  /// One in-flight replay, shared by the table, the queue, the thread
  /// replaying it and the slots that joined it.  `state`, `needed` and
  /// `out` are guarded by m_; the rest never changes.
  struct Replay {
    const TraceSource* trace = nullptr;
    EvalJob job{};
    alloc::DmmConfig canon{};  ///< table key (unset without a cache)
    enum class State : std::uint8_t { kQueued, kRunning, kDone };
    State state = State::kQueued;
    bool needed = false;  ///< joined by the open session (false = a hint)
    EvalOutcome out{};
  };
  struct Key {
    const TraceSource* trace = nullptr;
    alloc::DmmConfig canon{};
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const {
      return alloc::hash_combine(std::hash<const void*>{}(k.trace),
                                 alloc::hash_value(k.canon));
    }
  };
  /// One submitted job: its outcome (the score is filled by a cache hit at
  /// submit or from the replay at emission) and the replay it joined —
  /// null when the cache served it.  A joined slot with `out.from_cache`
  /// set is a duplicate of an earlier slot of the session.
  struct Slot {
    EvalOutcome out{};
    std::shared_ptr<Replay> replay;
  };

  void worker_main();
  /// The first queued hint, past the queued needed entries (caller holds
  /// m_).
  [[nodiscard]] std::deque<std::shared_ptr<Replay>>::iterator
  hints_begin_locked() {
    return queue_.begin() + static_cast<std::ptrdiff_t>(queued_needed_);
  }
  /// Erases every hint no worker has started (caller holds m_).
  void drop_queued_hints_locked();

  // Session state (coordinating thread only).
  std::vector<Slot> slots_;
  const TraceSource* stream_trace_ = nullptr;
  SharedScoreCache::Session* stream_cache_ = nullptr;
  bool streaming_ = false;

  // The in-flight table and its queue, guarded by m_.  queue_ holds the
  // queued needed entries (the first queued_needed_) and then the queued
  // hints, each part oldest first; running_hints_ counts the replays that
  // a worker started as hints and has not finished.
  mutable std::mutex m_;
  std::condition_variable work_ready_;
  std::condition_variable done_cv_;
  std::unordered_map<Key, std::shared_ptr<Replay>, KeyHash> inflight_;
  std::deque<std::shared_ptr<Replay>> queue_;
  std::size_t queued_needed_ = 0;
  std::size_t running_hints_ = 0;
  HintStats hint_stats_{};
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

/// Engine factory for ExplorerOptions::num_threads (0 = one worker per
/// hardware thread).
[[nodiscard]] std::unique_ptr<EvalEngine> make_engine(unsigned num_threads);

}  // namespace dmm::core

#endif  // DMM_CORE_EVAL_ENGINE_H
