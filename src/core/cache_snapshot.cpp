// SharedScoreCache snapshot persistence — the format documented in
// cache_snapshot.h, implemented as SharedScoreCache::save / ::load over the
// checked-file envelope and DmmConfig record of checked_file.h.
//
// A snapshot is an accelerator, never a correctness input: load() treats
// the file as untrusted and rejects it whole on any anomaly (the envelope
// checks, an out-of-range leaf, a canonical-hash disagreement) — the cache
// then simply starts cold.

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dmm/core/checked_file.h"
#include "dmm/core/eval_engine.h"

namespace dmm::core {

namespace {

// ---- record layout --------------------------------------------------------

void put_record(std::vector<std::uint8_t>& buf, std::uint64_t fingerprint,
                const alloc::DmmConfig& canon,
                const SharedScoreCache::Entry& entry) {
  append_le<std::uint64_t>(buf, fingerprint);
  append_config(buf, canon);
  append_le<std::uint64_t>(buf, entry.sim.peak_footprint);
  append_le<std::uint64_t>(buf, entry.sim.final_footprint);
  append_le<double>(buf, entry.sim.avg_footprint);
  append_le<std::uint64_t>(buf, entry.sim.peak_live_bytes);
  append_le<std::uint64_t>(buf, entry.sim.failed_allocs);
  append_le<double>(buf, entry.sim.wall_seconds);
  append_le<std::uint64_t>(buf, entry.sim.events);
  append_le<std::uint64_t>(buf, entry.work_steps);
}

struct ParsedRecord {
  std::uint64_t fingerprint = 0;
  alloc::DmmConfig canon{};
  SharedScoreCache::Entry entry{};
};

/// Parses one fixed-width record; false when the decision vector fails
/// load_config's leaf-range or hash self-check.
bool get_record(const std::uint8_t* p, ParsedRecord* out) {
  out->fingerprint = load_le<std::uint64_t>(p);
  if (!load_config(p + 8, &out->canon)) return false;
  p += 8 + kConfigCodecBytes;
  out->entry.sim.peak_footprint = load_le<std::uint64_t>(p);
  out->entry.sim.final_footprint = load_le<std::uint64_t>(p + 8);
  out->entry.sim.avg_footprint = load_le<double>(p + 16);
  out->entry.sim.peak_live_bytes = load_le<std::uint64_t>(p + 24);
  out->entry.sim.failed_allocs = load_le<std::uint64_t>(p + 32);
  out->entry.sim.wall_seconds = load_le<double>(p + 40);
  out->entry.sim.events = load_le<std::uint64_t>(p + 48);
  out->entry.work_steps = load_le<std::uint64_t>(p + 56);
  return true;
}

}  // namespace

SnapshotSaveResult SharedScoreCache::save(const std::string& path) const {
  SnapshotSaveResult result;
  std::vector<std::uint8_t> buf = begin_checked_file(
      kSnapshotMagic, kSnapshotVersion, size() * kSnapshotRecordBytes);
  std::uint64_t count = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->m);
    // dmm-lint: allow(unordered-iter): record order in the cache file is immaterial
    for (const auto& [key, stored] : shard->map) {
      put_record(buf, key.trace_fingerprint, key.canon, stored.entry);
      ++count;
    }
  }
  if (!write_checked_file(path, buf, count, &result.reason)) return result;
  result.saved = true;
  result.entries_written = count;
  return result;
}

SnapshotLoadResult SharedScoreCache::load(const std::string& path) {
  SnapshotLoadResult result;
  std::vector<std::uint8_t> buf;
  const std::optional<std::uint64_t> count =
      read_checked_file(path, kSnapshotMagic, kSnapshotVersion,
                        kSnapshotRecordBytes, &buf, &result.reason);
  if (!count) return result;

  // Parse every record before touching the cache: rejection must leave it
  // exactly as it was (all-or-nothing).
  std::vector<ParsedRecord> records(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    if (!get_record(buf.data() + kSnapshotHeaderBytes +
                        i * kSnapshotRecordBytes,
                    &records[i])) {
      result.reason = "corrupt record " + std::to_string(i);
      return result;
    }
  }

  std::uint64_t imported = 0;
  for (const ParsedRecord& rec : records) {
    const Key key{rec.fingerprint, rec.canon};
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.m);
    // Existing entries win: a key already cached in this process carries a
    // bit-identical score (replays are deterministic) and keeps its
    // in-process provenance for the hit accounting.  Import goes through
    // the bounded insert path, so loading a snapshot larger than the
    // capacity bound keeps the most recently imported records (record
    // order) and counts the displaced ones as evictions.
    if (insert_locked(shard, key, rec.entry, kPersistedSearchId)) ++imported;
  }
  persisted_entries_.fetch_add(imported, std::memory_order_relaxed);
  result.loaded = true;
  result.entries_imported = imported;
  return result;
}

}  // namespace dmm::core
