// SharedScoreCache snapshot persistence — the binary format documented in
// cache_snapshot.h, implemented as SharedScoreCache::save / ::load.
//
// Design rules:
//   * a snapshot is an accelerator, never a correctness input: load()
//     treats the file as untrusted and rejects it whole on any anomaly
//     (truncation, checksum mismatch, unknown version, out-of-range leaf,
//     canonical-hash disagreement) — the cache then simply starts cold;
//   * save() is atomic: the file is assembled in a uniquely-named temp
//     next to the target and renamed over it, so two sessions saving the
//     same path last-writer-win and a concurrent load() never observes a
//     torn file;
//   * records are fixed width and little-endian, written byte by byte —
//     no struct dumps, so the format is independent of padding and host
//     endianness.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dmm/core/design_space.h"
#include "dmm/core/eval_engine.h"

namespace dmm::core {

namespace {

// ---- little-endian primitives over a byte buffer --------------------------

void put_u8(std::vector<std::uint8_t>& buf, std::uint8_t v) {
  buf.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& buf, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(buf, bits);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double get_f64(const std::uint8_t* p) {
  const std::uint64_t bits = get_u64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// ---- record layout --------------------------------------------------------

void put_record(std::vector<std::uint8_t>& buf, std::uint64_t fingerprint,
                const alloc::DmmConfig& canon,
                const SharedScoreCache::Entry& entry) {
  put_u64(buf, fingerprint);
  put_u64(buf, static_cast<std::uint64_t>(alloc::hash_value(canon)));
  for (const TreeId t : all_trees()) {
    put_u8(buf, static_cast<std::uint8_t>(get_leaf(canon, t)));
  }
  put_u64(buf, canon.chunk_bytes);
  put_u64(buf, canon.big_request_bytes);
  put_u64(buf, canon.static_pool_bytes);
  put_u64(buf, canon.deferred_split_min);
  put_u32(buf, canon.max_class_log2);
  put_u64(buf, entry.sim.peak_footprint);
  put_u64(buf, entry.sim.final_footprint);
  put_f64(buf, entry.sim.avg_footprint);
  put_u64(buf, entry.sim.peak_live_bytes);
  put_u64(buf, entry.sim.failed_allocs);
  put_f64(buf, entry.sim.wall_seconds);
  put_u64(buf, entry.sim.events);
  put_u64(buf, entry.work_steps);
}

struct ParsedRecord {
  std::uint64_t fingerprint = 0;
  alloc::DmmConfig canon{};
  SharedScoreCache::Entry entry{};
};

/// Parses one fixed-width record; false when a leaf index is out of range
/// or the stored canonical hash disagrees with the reconstructed vector.
bool get_record(const std::uint8_t* p, ParsedRecord* out) {
  out->fingerprint = get_u64(p);
  p += 8;
  const std::uint64_t stored_hash = get_u64(p);
  p += 8;
  alloc::DmmConfig cfg;
  for (const TreeId t : all_trees()) {
    const int leaf = *p++;
    if (leaf >= leaf_count(t)) return false;
    set_leaf(cfg, t, leaf);
  }
  cfg.chunk_bytes = static_cast<std::size_t>(get_u64(p));
  p += 8;
  cfg.big_request_bytes = static_cast<std::size_t>(get_u64(p));
  p += 8;
  cfg.static_pool_bytes = static_cast<std::size_t>(get_u64(p));
  p += 8;
  cfg.deferred_split_min = static_cast<std::size_t>(get_u64(p));
  p += 8;
  cfg.max_class_log2 = get_u32(p);
  p += 4;
  if (static_cast<std::uint64_t>(alloc::hash_value(cfg)) != stored_hash) {
    return false;
  }
  out->canon = cfg;
  out->entry.sim.peak_footprint = static_cast<std::size_t>(get_u64(p));
  p += 8;
  out->entry.sim.final_footprint = static_cast<std::size_t>(get_u64(p));
  p += 8;
  out->entry.sim.avg_footprint = get_f64(p);
  p += 8;
  out->entry.sim.peak_live_bytes = static_cast<std::size_t>(get_u64(p));
  p += 8;
  out->entry.sim.failed_allocs = get_u64(p);
  p += 8;
  out->entry.sim.wall_seconds = get_f64(p);
  p += 8;
  out->entry.sim.events = get_u64(p);
  p += 8;
  out->entry.work_steps = get_u64(p);
  return true;
}

/// Reads the whole file into @p out; false when it cannot be opened/read.
bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return false;
  }
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return false;
  }
  std::rewind(f);
  out->resize(static_cast<std::size_t>(size));
  const std::size_t read =
      size == 0 ? 0 : std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  return read == out->size();
}

}  // namespace

SnapshotSaveResult SharedScoreCache::save(const std::string& path) const {
  SnapshotSaveResult result;
  std::vector<std::uint8_t> buf;
  buf.reserve(kSnapshotHeaderBytes + size() * kSnapshotRecordBytes +
              kSnapshotChecksumBytes);
  buf.insert(buf.end(), std::begin(kSnapshotMagic), std::end(kSnapshotMagic));
  put_u32(buf, kSnapshotVersion);
  put_u64(buf, 0);  // entry count, patched below

  std::uint64_t count = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->m);
    // dmm-lint: allow(unordered-iter): record order in the cache file is immaterial
    for (const auto& [key, stored] : shard->map) {
      put_record(buf, key.trace_fingerprint, key.canon, stored.entry);
      ++count;
    }
  }
  for (int i = 0; i < 8; ++i) {
    buf[kSnapshotHeaderBytes - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(count >> (8 * i));
  }
  put_u64(buf, snapshot_checksum(buf.data(), buf.size()));

  // Unique temp name: two sessions saving the same path concurrently must
  // never interleave writes into one file.  pid x atomic counter is unique
  // per in-flight save on one host.
  static std::atomic<std::uint64_t> save_seq{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(save_seq.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    result.reason = "cannot open temp file " + tmp;
    return result;
  }
  const bool wrote = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    result.reason = "short write to " + tmp;
    return result;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    result.reason = "rename to " + path + " failed";
    return result;
  }
  result.saved = true;
  result.entries_written = count;
  return result;
}

SnapshotLoadResult SharedScoreCache::load(const std::string& path) {
  SnapshotLoadResult result;
  std::vector<std::uint8_t> buf;
  if (!read_file(path, &buf)) {
    result.reason = "cannot read " + path;
    return result;
  }
  if (buf.size() < kSnapshotHeaderBytes + kSnapshotChecksumBytes) {
    result.reason = "file shorter than header";
    return result;
  }
  if (std::memcmp(buf.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    result.reason = "bad magic";
    return result;
  }
  const std::uint32_t version = get_u32(buf.data() + 8);
  if (version != kSnapshotVersion) {
    result.reason = "unsupported snapshot version " + std::to_string(version);
    return result;
  }
  const std::uint64_t count = get_u64(buf.data() + 12);
  // Validate by division, not by multiplying count out: a crafted count of
  // ~(size - 28) * 131^-1 mod 2^64 would wrap `count * record_bytes` back
  // to the real file size and then explode the records allocation below.
  const std::size_t body =
      buf.size() - kSnapshotHeaderBytes - kSnapshotChecksumBytes;
  if (body % kSnapshotRecordBytes != 0 ||
      count != body / kSnapshotRecordBytes) {
    result.reason = "truncated: " + std::to_string(buf.size()) +
                    " bytes for " + std::to_string(count) + " entries";
    return result;
  }
  const std::uint64_t stored_sum =
      get_u64(buf.data() + buf.size() - kSnapshotChecksumBytes);
  if (snapshot_checksum(buf.data(), buf.size() - kSnapshotChecksumBytes) !=
      stored_sum) {
    result.reason = "checksum mismatch";
    return result;
  }

  // Parse every record before touching the cache: rejection must leave it
  // exactly as it was (all-or-nothing).
  std::vector<ParsedRecord> records(count);
  for (std::uint64_t i = 0; i < count; ++i) {
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
