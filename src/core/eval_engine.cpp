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
// EvalEngine
// ---------------------------------------------------------------------------

EvalEngine::EvalEngine(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // One worker replays inline: a lone pool thread would only add handoffs.
  if (num_threads == 1) return;
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

EvalEngine::~EvalEngine() {
  // Hinted traces may already be gone (a design run owns its sub-traces
  // and is destroyed before the engine), so no worker may start another
  // hint; the join below waits for the running ones.
  {
    const std::lock_guard<std::mutex> lock(m_);
    drop_queued_hints_locked();
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

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
}

void EvalEngine::stream_submit(const EvalJob& job) {
  assert(streaming_ && "stream_submit outside a session");
  Slot& slot = slots_.emplace_back();
  slot.out.tag = job.tag;
  alloc::DmmConfig canon{};
  if (stream_cache_ != nullptr) {
    // Canonicalize once: the same form feeds the lookup, the table key and
    // the at-emission insert.  Without a cache every job replays, so no
    // canonicalization happens at all.
    canon = alloc::canonical(job.cfg);
    SharedScoreCache::Entry hit;
    if (stream_cache_->lookup_canonical(canon, &hit)) {
      slot.out.sim = hit.sim;
      slot.out.work_steps = hit.work_steps;
      slot.out.from_cache = true;
      return;
    }
  }
  std::unique_lock<std::mutex> lock(m_);
  if (stream_cache_ == nullptr) {
    slot.replay = std::make_shared<Replay>(Replay{stream_trace_, job});
  } else {
    std::shared_ptr<Replay>& entry = inflight_[Key{stream_trace_, canon}];
    if (entry == nullptr) {
      entry = std::make_shared<Replay>(Replay{stream_trace_, job, canon});
      slot.replay = entry;
    } else {
      slot.replay = entry;
      if (entry->needed) {
        // Joined earlier in this session: a duplicate served from that
        // owner's replay.
        slot.out.from_cache = true;
        return;
      }
      if (entry->state != Replay::State::kQueued) {
        // A running or finished hint: its replay becomes this slot's.
        entry->needed = true;
        ++hint_stats_.adopted;
        return;
      }
      // A hint no worker has started: it moves up to the needed replays.
      queue_.erase(std::find(hints_begin_locked(), queue_.end(), entry));
    }
  }
  Replay& replay = *slot.replay;
  replay.needed = true;
  if (workers_.empty()) {
    lock.unlock();
    EvalOutcome out = compute(*stream_trace_, job);
    lock.lock();
    replay.out = out;
    replay.state = Replay::State::kDone;
    return;
  }
  queue_.insert(hints_begin_locked(), slot.replay);
  ++queued_needed_;
  lock.unlock();
  work_ready_.notify_one();
}

std::vector<EvalOutcome> EvalEngine::stream_drain() {
  assert(streaming_ && "stream_drain outside a session");
  std::vector<EvalOutcome> out;
  out.reserve(slots_.size());
  for (Slot& slot : slots_) {
    if (slot.replay != nullptr) {
      std::unique_lock<std::mutex> lock(m_);
      const Replay& replay = *slot.replay;
      done_cv_.wait(lock,
                    [&] { return replay.state == Replay::State::kDone; });
      slot.out.sim = replay.out.sim;
      slot.out.work_steps = replay.out.work_steps;
      lock.unlock();
      // Owners insert in submit order as slots are emitted, so the cache
      // fills exactly as a post-batch pass would fill it.
      if (stream_cache_ != nullptr && !slot.out.from_cache) {
        stream_cache_->insert_canonical(replay.canon,
                                        {slot.out.sim, slot.out.work_steps});
      }
    }
    out.push_back(slot.out);
  }
  {
    // Every needed entry was this session's and is done; hints stay.
    const std::lock_guard<std::mutex> lock(m_);
    std::erase_if(inflight_, [](const auto& e) { return e.second->needed; });
  }
  streaming_ = false;
  stream_trace_ = nullptr;
  stream_cache_ = nullptr;
  slots_.clear();
  return out;
}

void EvalEngine::hint(const TraceSource& trace, const EvalJob& job,
                      SharedScoreCache::Session* cache) {
  // Hints are keyed by canonical form, which only a cached session
  // computes, and pay off only on an idle worker.
  if (cache == nullptr || workers_.empty()) return;
  const alloc::DmmConfig canon = alloc::canonical(job.cfg);
  if (cache->contains_canonical(canon)) return;
  {
    const std::lock_guard<std::mutex> lock(m_);
    std::shared_ptr<Replay>& entry = inflight_[Key{&trace, canon}];
    if (entry != nullptr) return;
    entry = std::make_shared<Replay>(Replay{&trace, job, canon});
    queue_.push_back(entry);
    ++hint_stats_.queued;
  }
  work_ready_.notify_one();
}

EvalOutcome EvalEngine::compute(const TraceSource& trace, const EvalJob& job) {
  return score_candidate(trace, job);
}

void EvalEngine::worker_main() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    work_ready_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    const std::shared_ptr<Replay> replay = std::move(queue_.front());
    queue_.pop_front();
    const bool hint = !replay->needed;
    if (hint) {
      ++hint_stats_.started;
      ++running_hints_;
    } else {
      --queued_needed_;
    }
    replay->state = Replay::State::kRunning;
    lock.unlock();
    EvalOutcome out = compute(*replay->trace, replay->job);
    lock.lock();
    replay->out = out;
    replay->state = Replay::State::kDone;
    if (hint) --running_hints_;
    done_cv_.notify_all();
  }
}

void EvalEngine::drop_queued_hints_locked() {
  const auto hints = hints_begin_locked();
  for (auto it = hints; it != queue_.end(); ++it) {
    inflight_.erase(Key{(*it)->trace, (*it)->canon});
  }
  queue_.erase(hints, queue_.end());
}

void EvalEngine::drop_hints() {
  const std::lock_guard<std::mutex> lock(m_);
  drop_queued_hints_locked();
}

void EvalEngine::settle_hints() {
  std::unique_lock<std::mutex> lock(m_);
  drop_queued_hints_locked();
  done_cv_.wait(lock, [&] { return running_hints_ == 0; });
  std::erase_if(inflight_, [](const auto& e) { return !e.second->needed; });
}

EvalEngine::HintStats EvalEngine::hint_stats() const {
  const std::lock_guard<std::mutex> lock(m_);
  return hint_stats_;
}

std::unique_ptr<EvalEngine> make_engine(unsigned num_threads) {
  return std::make_unique<EvalEngine>(num_threads);
}

}  // namespace dmm::core
