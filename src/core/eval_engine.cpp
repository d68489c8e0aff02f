#include "dmm/core/eval_engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "dmm/alloc/policy_core.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::core {

// ---------------------------------------------------------------------------
// SharedScoreCache
// ---------------------------------------------------------------------------

SharedScoreCache::SharedScoreCache(std::size_t shard_count)
    : SharedScoreCache(Limits{}, shard_count) {}

SharedScoreCache::SharedScoreCache(const Limits& limits,
                                   std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  const std::size_t cap = limits.max_entries;  // 0 = unbounded
  capacity_ = cap;
  // Never spread a bounded budget so thin that hash skew fills one shard
  // while the cache is mostly empty; tight budgets collapse to one shard
  // and get exact LRU.
  if (cap > 0) {
    shard_count = std::min(
        shard_count, std::max<std::size_t>(1, cap / kMinEntriesPerBoundedShard));
  }
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    if (cap > 0) {
      // Per-shard caps sum exactly to cap, so the global bound holds
      // strictly while eviction stays lock-local to one shard.
      shard->cap = cap / shard_count + (i < cap % shard_count ? 1 : 0);
    }
    shards_.push_back(std::move(shard));
  }
}

SharedScoreCache::Shard& SharedScoreCache::shard_for(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

SharedScoreCache::Session SharedScoreCache::begin_search(
    std::uint64_t trace_fingerprint) {
  return Session(this, trace_fingerprint,
                 next_search_id_.fetch_add(1, std::memory_order_relaxed));
}

bool SharedScoreCache::Session::lookup_canonical(const alloc::DmmConfig& canon,
                                                 Entry* out) {
  const Key key{trace_fingerprint_, canon};
  Shard& shard = owner_->shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.m);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return false;
  *out = it->second.entry;
  if (shard.cap > 0) {
    // Touch: move to the recent end of the shard's LRU list.
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
  }
  owner_->hits_.fetch_add(1, std::memory_order_relaxed);
  if (it->second.search_id == kPersistedSearchId) {
    // Replayed by a previous process (snapshot entry) — warm-start hit,
    // accounted apart from in-process cross-search reuse.
    ++persisted_hits_;
    owner_->persisted_hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (it->second.search_id != search_id_) {
    ++cross_search_hits_;
    owner_->cross_search_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

void SharedScoreCache::Session::insert_canonical(const alloc::DmmConfig& canon,
                                                 const Entry& entry) {
  const Key key{trace_fingerprint_, canon};
  Shard& shard = owner_->shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.m);
  if (owner_->insert_locked(shard, key, entry, search_id_)) {
    owner_->insertions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SharedScoreCache::Session::contains_canonical(
    const alloc::DmmConfig& canon) const {
  const Key key{trace_fingerprint_, canon};
  const Shard& shard = owner_->shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.m);
  return shard.map.find(key) != shard.map.end();
}

bool SharedScoreCache::insert_locked(Shard& shard, const Key& key,
                                     const Entry& entry,
                                     std::uint64_t search_id) {
  // First writer wins: replays are deterministic, so a concurrent loser
  // holds a bit-identical entry and the stored search_id keeps naming the
  // session whose replay the map retains.
  const auto [it, inserted] = shard.map.emplace(key, Stored{entry, search_id});
  if (!inserted) return false;
  if (shard.cap > 0) {
    shard.lru.push_back(key);
    it->second.lru_it = std::prev(shard.lru.end());
    if (shard.map.size() > shard.cap) {
      // Evict the shard's least-recent entry.  cap >= 1 and the new key
      // sits at the back, so the front is always an older, distinct key.
      shard.map.erase(shard.lru.front());
      shard.lru.pop_front();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return true;
}

std::size_t SharedScoreCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->m);
    n += shard->map.size();
  }
  return n;
}

SharedScoreCache::Stats SharedScoreCache::stats() const {
  Stats s;
  s.searches = next_search_id_.load(std::memory_order_relaxed) - 1;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.cross_search_hits = cross_search_hits_.load(std::memory_order_relaxed);
  s.persisted_hits = persisted_hits_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.persisted_entries = persisted_entries_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = size();
  return s;
}

void SharedScoreCache::clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->m);
    shard->map.clear();
    shard->lru.clear();
  }
}

std::uint64_t family_fingerprint(const std::vector<FamilyEvalMember>& members,
                                 FamilyAggregate aggregate) {
  // FNV-1a over the fields' little-endian bytes — the same hash family
  // AllocTrace::fingerprint uses, so family and trace fingerprints live in
  // one well-mixed identifier space.
  std::vector<std::uint8_t> bytes;
  bytes.reserve(16 * (members.size() + 1));
  append_le<std::uint64_t>(bytes, static_cast<std::uint64_t>(aggregate));
  append_le<std::uint64_t>(bytes, members.size());
  for (const FamilyEvalMember& m : members) {
    append_le<std::uint64_t>(bytes, m.fingerprint);
    append_le<double>(bytes, m.weight);
  }
  return snapshot_checksum(bytes.data(), bytes.size());
}

EvalOutcome aggregate_family(std::uint64_t tag,
                             const std::vector<EvalOutcome>& member_outcomes,
                             const std::vector<FamilyEvalMember>& members,
                             FamilyAggregate aggregate) {
  EvalOutcome agg;
  agg.tag = tag;
  agg.from_cache = true;
  double peak = 0.0;
  double final_fp = 0.0;
  double avg = 0.0;
  double live = 0.0;
  for (std::size_t m = 0; m < member_outcomes.size(); ++m) {
    const EvalOutcome& out = member_outcomes[m];
    const double w = aggregate == FamilyAggregate::kWeightedSum
                         ? members[m].weight
                         : 1.0;
    if (aggregate == FamilyAggregate::kMaxPeak) {
      peak = std::max(peak, static_cast<double>(out.sim.peak_footprint));
      final_fp =
          std::max(final_fp, static_cast<double>(out.sim.final_footprint));
      avg = std::max(avg, out.sim.avg_footprint);
      live = std::max(live, static_cast<double>(out.sim.peak_live_bytes));
    } else {
      peak += w * static_cast<double>(out.sim.peak_footprint);
      final_fp += w * static_cast<double>(out.sim.final_footprint);
      avg += w * out.sim.avg_footprint;
      live += w * static_cast<double>(out.sim.peak_live_bytes);
    }
    // Cross-aggregate invariants: a vector is feasible iff it is feasible
    // on every member, and work/events/wall are totals either way.
    agg.sim.failed_allocs += out.sim.failed_allocs;
    agg.sim.events += out.sim.events;
    agg.sim.wall_seconds += out.sim.wall_seconds;
    agg.work_steps += out.work_steps;
    agg.from_cache = agg.from_cache && out.from_cache;
  }
  agg.sim.peak_footprint = static_cast<std::size_t>(peak);
  agg.sim.final_footprint = static_cast<std::size_t>(final_fp);
  agg.sim.avg_footprint = avg;
  agg.sim.peak_live_bytes = static_cast<std::size_t>(live);
  return agg;
}

EvalOutcome score_candidate(const TraceSource& trace, const EvalJob& job) {
  EvalOutcome out;
  out.tag = job.tag;
  sysmem::SystemArena arena;
  // Replay adapter: scoring builds the bare policy core (see
  // alloc/policy_core.h for the core/runtime-front split) — never the
  // deployable front, whose caches and locks must not influence a score.
  // strict accounting off: exploration replays thousands of events per
  // candidate and only footprint/work are scored.
  alloc::PolicyCore mgr(arena, job.cfg, "candidate",
                        /*strict_accounting=*/false);
  out.sim = simulate(trace, mgr);
  out.work_steps = mgr.work_steps();
  return out;
}

// ---------------------------------------------------------------------------
// EvalEngine streaming session
// ---------------------------------------------------------------------------

std::vector<EvalOutcome> EvalEngine::evaluate(
    const TraceSource& trace, const std::vector<EvalJob>& jobs,
    SharedScoreCache::Session* cache) {
  stream_begin(trace, cache);
  for (const EvalJob& job : jobs) stream_submit(job);
  return stream_drain();
}

void EvalEngine::stream_begin(const TraceSource& trace,
                              SharedScoreCache::Session* cache) {
  assert(!streaming_ && "one streaming session at a time per engine");
  streaming_ = true;
  stream_trace_ = &trace;
  stream_cache_ = cache;
  slots_.clear();
  pending_canon_.clear();
}

void EvalEngine::stream_submit(const EvalJob& job) {
  assert(streaming_ && "stream_submit outside a session");
  auto slot = std::make_unique<StreamSlot>();
  slot->job = job;
  slot->out.tag = job.tag;
  if (stream_cache_ != nullptr) {
    // Cache protocol on the coordinating thread: canonicalize once, then
    // the same form feeds the lookup, the in-session dedup, and the
    // at-emission insert.  Without a cache every job replays, so no
    // canonicalization happens at all.
    slot->canon = alloc::canonical(job.cfg);
    SharedScoreCache::Entry hit;
    if (stream_cache_->lookup_canonical(slot->canon, &hit)) {
      slot->kind = StreamSlot::Kind::kCached;
      slot->out.sim = hit.sim;
      slot->out.work_steps = hit.work_steps;
      slot->out.from_cache = true;
      slot->done.store(true, std::memory_order_relaxed);
      slots_.push_back(std::move(slot));
      return;
    }
    const auto [it, inserted] =
        pending_canon_.emplace(slot->canon, slots_.size());
    if (!inserted) {
      // Same canonical form already in flight: resolve from its owner at
      // emission instead of replaying twice.
      slot->kind = StreamSlot::Kind::kDup;
      slot->dup_of = it->second;
      slots_.push_back(std::move(slot));
      return;
    }
  }
  slot->kind = StreamSlot::Kind::kRun;
  StreamSlot& ref = *slot;
  slots_.push_back(std::move(slot));
  // Hints are keyed by canonical form, which only a cached session
  // computes.
  if (stream_cache_ != nullptr && adopt_hint(*stream_trace_, ref)) return;
  dispatch(ref);
}

void EvalEngine::hint(const TraceSource& trace, const EvalJob& job,
                      SharedScoreCache::Session* cache) {
  if (cache == nullptr) return;
  const alloc::DmmConfig canon = alloc::canonical(job.cfg);
  if (cache->contains_canonical(canon)) return;
  if (streaming_ && stream_trace_ == &trace &&
      pending_canon_.count(canon) != 0) {
    return;
  }
  enqueue_hint(trace, job, canon);
}

std::vector<EvalOutcome> EvalEngine::stream_drain() {
  assert(streaming_ && "stream_drain outside a session");
  std::vector<EvalOutcome> out;
  out.reserve(slots_.size());
  for (const std::unique_ptr<StreamSlot>& ptr : slots_) {
    StreamSlot& slot = *ptr;
    if (slot.kind == StreamSlot::Kind::kRun) {
      wait_slot(slot);
      // Inserts happen in submit order as slots are emitted, so the cache
      // fills exactly as a post-batch pass would fill it.
      if (stream_cache_ != nullptr) {
        stream_cache_->insert_canonical(slot.canon,
                                        {slot.out.sim, slot.out.work_steps});
      }
    } else if (slot.kind == StreamSlot::Kind::kDup) {
      // The owner has a lower index, so it was emitted (and finished)
      // before this slot is reached.
      const StreamSlot& owner = *slots_[slot.dup_of];
      slot.out.sim = owner.out.sim;
      slot.out.work_steps = owner.out.work_steps;
      slot.out.from_cache = true;
    }
    out.push_back(slot.out);
  }
  streaming_ = false;
  stream_trace_ = nullptr;
  stream_cache_ = nullptr;
  slots_.clear();
  pending_canon_.clear();
  return out;
}

EvalOutcome EvalEngine::compute(const EvalJob& job) const {
  return score_candidate(*stream_trace_, job);
}

void EvalEngine::dispatch(StreamSlot& slot) {
  slot.out = compute(slot.job);
  slot.done.store(true, std::memory_order_release);
}

void EvalEngine::wait_slot(StreamSlot& slot) {
  // Inline dispatch already completed the slot.
  (void)slot;
}

// ---------------------------------------------------------------------------
// ThreadPoolEngine
// ---------------------------------------------------------------------------

ThreadPoolEngine::ThreadPoolEngine(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPoolEngine::~ThreadPoolEngine() {
  // Hinted traces may already be gone (a design run owns its sub-traces
  // and is destroyed before the engine), so no worker may start another
  // hint; the join below waits for the running ones.
  {
    const std::lock_guard<std::mutex> lock(m_);
    drop_queued_locked();
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPoolEngine::dispatch(StreamSlot& slot) {
  // m_ is the happens-before edge from the session state written by the
  // coordinating thread to the worker's compute().
  {
    const std::lock_guard<std::mutex> lock(m_);
    queue_.push_back(&slot);
  }
  work_ready_.notify_one();
}

void ThreadPoolEngine::worker_main() {
  for (;;) {
    StreamSlot* slot = nullptr;
    Hint* hint = nullptr;
    {
      std::unique_lock<std::mutex> lock(m_);
      work_ready_.wait(lock, [&] {
        return stop_ || !queue_.empty() || !hint_queue_.empty();
      });
      if (stop_) return;
      if (!queue_.empty()) {
        slot = queue_.front();
        queue_.pop_front();
      } else {
        // The job queue is empty: speculate on the nearest hint.
        hint = hint_queue_.front();
        hint_queue_.pop_front();
        hint->state = Hint::State::kRunning;
        ++running_hints_;
        ++hint_stats_.started;
      }
    }
    if (hint != nullptr) {
      run_hint(*hint);
      continue;
    }
    slot->out = compute(slot->job);
    slot->done.store(true, std::memory_order_release);
    {
      // Empty critical section: a waiter that saw done == false must
      // reach its cv wait before the notification fires, or miss it.
      const std::lock_guard<std::mutex> lock(m_);
    }
    done_cv_.notify_all();
  }
}

void ThreadPoolEngine::wait_slot(StreamSlot& slot) {
  if (slot.done.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(m_);
  done_cv_.wait(lock,
                [&] { return slot.done.load(std::memory_order_acquire); });
}

void ThreadPoolEngine::run_hint(Hint& hint) {
  hint.out = score_candidate(*hint.trace, hint.job);
  {
    const std::lock_guard<std::mutex> lock(m_);
    hint.state = Hint::State::kDone;
    --running_hints_;
    if (StreamSlot* slot = hint.adopter) {
      // Adopted mid-replay: complete the waiting slot, which keeps its
      // own tag and from_cache == false like any fresh replay.
      slot->out.sim = hint.out.sim;
      slot->out.work_steps = hint.out.work_steps;
      slot->done.store(true, std::memory_order_release);
      hints_.remove_if([&](const Hint& h) { return &h == &hint; });
    }
  }
  done_cv_.notify_all();
}

void ThreadPoolEngine::enqueue_hint(const TraceSource& trace,
                                    const EvalJob& job,
                                    const alloc::DmmConfig& canon) {
  {
    const std::lock_guard<std::mutex> lock(m_);
    for (const Hint& h : hints_) {
      if (h.trace == &trace && h.canon == canon) return;
    }
    Hint& hint = hints_.emplace_back();
    hint.trace = &trace;
    hint.job = job;
    hint.canon = canon;
    hint_queue_.push_back(&hint);
    ++hint_stats_.queued;
  }
  work_ready_.notify_one();
}

bool ThreadPoolEngine::adopt_hint(const TraceSource& trace,
                                  StreamSlot& slot) {
  const std::lock_guard<std::mutex> lock(m_);
  const auto it =
      std::find_if(hints_.begin(), hints_.end(), [&](const Hint& h) {
        return h.trace == &trace && h.canon == slot.canon;
      });
  if (it == hints_.end()) return false;
  switch (it->state) {
    case Hint::State::kQueued:
      // Not started: the real job takes its place in the job queue.
      hint_queue_.erase(
          std::find(hint_queue_.begin(), hint_queue_.end(), &*it));
      hints_.erase(it);
      return false;
    case Hint::State::kRunning:
      it->adopter = &slot;
      break;
    case Hint::State::kDone:
      slot.out.sim = it->out.sim;
      slot.out.work_steps = it->out.work_steps;
      slot.done.store(true, std::memory_order_release);
      hints_.erase(it);
      break;
  }
  ++hint_stats_.adopted;
  return true;
}

void ThreadPoolEngine::drop_queued_locked() {
  hints_.remove_if(
      [](const Hint& h) { return h.state == Hint::State::kQueued; });
  hint_queue_.clear();
}

void ThreadPoolEngine::drop_hints() {
  const std::lock_guard<std::mutex> lock(m_);
  drop_queued_locked();
}

void ThreadPoolEngine::settle_hints() {
  std::unique_lock<std::mutex> lock(m_);
  drop_queued_locked();
  done_cv_.wait(lock, [&] { return running_hints_ == 0; });
  hints_.clear();
}

EvalEngine::HintStats ThreadPoolEngine::hint_stats() const {
  const std::lock_guard<std::mutex> lock(m_);
  return hint_stats_;
}

std::unique_ptr<EvalEngine> make_engine(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  // A one-worker pool is just a serial engine paying handoff overhead.
  if (num_threads == 1) return std::make_unique<SerialEngine>();
  return std::make_unique<ThreadPoolEngine>(num_threads);
}

}  // namespace dmm::core
