#ifndef DMM_CORE_CHECKED_FILE_H
#define DMM_CORE_CHECKED_FILE_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/core/design_space.h"

namespace dmm::core {

// ---------------------------------------------------------------------------
// The one byte codec behind every file and frame the library writes: the
// score-cache snapshot (cache_snapshot.h), the config artifact
// (runtime/config_artifact.h), the DMMT trace store (trace/trace_store.h)
// and the serve wire frames (serve/frame.h).
//
//   * Integers and doubles are fixed width, little-endian, written byte by
//     byte — never a struct dump, so a format does not depend on padding or
//     host endianness.  The width is always spelled at the call site
//     (append_le<std::uint32_t>), because the width is the format.
//   * Every sealed region ends in an FNV-1a checksum (snapshot_checksum).
//   * A whole file is written to a uniquely named temp sibling and renamed
//     over the target, so concurrent writers last-writer-win and a reader
//     never observes a torn file.
//
// The snapshot and the artifact share one envelope:
//
//   header   8 B   magic
//            4 B   format version
//            8 B   record count N
//   N records of one fixed width
//   footer   8 B   FNV-1a checksum of every preceding byte
//
// read_checked_file() treats the file as untrusted and returns the record
// count only when the magic, version, size-against-count and footer all
// hold; each caller then decodes and validates its own records.
// ---------------------------------------------------------------------------

inline constexpr std::size_t kCheckedHeaderBytes = 8 + 4 + 8;
inline constexpr std::size_t kCheckedFooterBytes = 8;

/// FNV-1a over @p n bytes — the checksum that seals every region.  Exposed
/// so tests can craft files that are corrupt in one specific way (e.g. a
/// version bump with a *valid* checksum must still be rejected by the
/// version check, not the checksum).
[[nodiscard]] inline std::uint64_t snapshot_checksum(const std::uint8_t* data,
                                                     std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Writes @p v at @p p as sizeof(T) little-endian bytes (a double as its
/// IEEE-754 bit pattern).
template <typename T>
void store_le(std::uint8_t* p, std::type_identity_t<T> v) {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>);
  std::uint64_t bits = 0;
  if constexpr (std::is_same_v<T, double>) {
    std::memcpy(&bits, &v, sizeof(bits));
  } else {
    bits = v;
  }
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
}

/// Reads a T that store_le wrote at @p p.
template <typename T>
[[nodiscard]] T load_le(const std::uint8_t* p) {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, double>);
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  if constexpr (std::is_same_v<T, double>) {
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  } else {
    return static_cast<T>(bits);
  }
}

/// Appends @p v to @p buf as sizeof(T) little-endian bytes.
template <typename T>
void append_le(std::vector<std::uint8_t>& buf, std::type_identity_t<T> v) {
  buf.resize(buf.size() + sizeof(T));
  store_le<T>(buf.data() + buf.size() - sizeof(T), v);
}

// ---- the DmmConfig record --------------------------------------------------
//
//   8 B   alloc::hash_value of the vector (self-check)
//  15 B   one leaf index per decision tree, all_trees() order
//   8 B   chunk_bytes, big_request_bytes, static_pool_bytes,
//         deferred_split_min (one each)
//   4 B   max_class_log2

inline constexpr std::size_t kConfigCodecBytes = 8 + 15 + (4 * 8 + 4);

/// Appends @p cfg's kConfigCodecBytes-byte record to @p buf.
inline void append_config(std::vector<std::uint8_t>& buf,
                          const alloc::DmmConfig& cfg) {
  append_le<std::uint64_t>(buf, alloc::hash_value(cfg));
  for (const TreeId t : all_trees()) {
    buf.push_back(static_cast<std::uint8_t>(get_leaf(cfg, t)));
  }
  append_le<std::uint64_t>(buf, cfg.chunk_bytes);
  append_le<std::uint64_t>(buf, cfg.big_request_bytes);
  append_le<std::uint64_t>(buf, cfg.static_pool_bytes);
  append_le<std::uint64_t>(buf, cfg.deferred_split_min);
  append_le<std::uint32_t>(buf, cfg.max_class_log2);
}

/// Decodes the record at @p p into @p out; false (and @p out untouched)
/// when a leaf index is out of range or the stored hash disagrees with the
/// decoded vector.
[[nodiscard]] inline bool load_config(const std::uint8_t* p,
                                      alloc::DmmConfig* out) {
  const auto stored_hash = load_le<std::uint64_t>(p);
  p += 8;
  alloc::DmmConfig cfg;
  for (const TreeId t : all_trees()) {
    const int leaf = *p++;
    if (leaf >= leaf_count(t)) return false;
    set_leaf(cfg, t, leaf);
  }
  cfg.chunk_bytes = load_le<std::uint64_t>(p);
  cfg.big_request_bytes = load_le<std::uint64_t>(p + 8);
  cfg.static_pool_bytes = load_le<std::uint64_t>(p + 16);
  cfg.deferred_split_min = load_le<std::uint64_t>(p + 24);
  cfg.max_class_log2 = load_le<std::uint32_t>(p + 32);
  if (alloc::hash_value(cfg) != stored_hash) return false;
  *out = cfg;
  return true;
}

// ---- whole files -----------------------------------------------------------

/// A temp name next to @p path that is unique per in-flight write on one
/// host: `<path>.tmp.<pid>.<process-wide counter>`.
[[nodiscard]] std::string unique_temp_path(const std::string& path);

/// Renames @p tmp over @p path; on failure removes @p tmp and says why.
[[nodiscard]] bool rename_into_place(const std::string& tmp,
                                     const std::string& path,
                                     std::string* why);

/// Starts an envelope in a fresh buffer: magic, version and a count
/// placeholder, with room reserved for @p capacity_bytes of records.
[[nodiscard]] std::vector<std::uint8_t> begin_checked_file(
    const std::uint8_t (&magic)[8], std::uint32_t version,
    std::size_t capacity_bytes);

/// Seals @p buf (a begin_checked_file buffer followed by @p count records)
/// — patches the count, appends the footer — and writes it to a
/// unique_temp_path sibling of @p path, renamed into place; false + @p why
/// (the temp file removed) on any I/O failure.
[[nodiscard]] bool write_checked_file(const std::string& path,
                                      std::vector<std::uint8_t>& buf,
                                      std::uint64_t count, std::string* why);

/// Reads @p path into @p buf and checks its envelope.  Returns the record
/// count (records start at kCheckedHeaderBytes) or nothing, with a reason
/// in @p why: "cannot read", "shorter than header", "bad magic",
/// "unsupported version", "truncated" (a size that disagrees with the
/// count, checked by division so a forged count cannot wrap the size
/// arithmetic) or "checksum mismatch".
[[nodiscard]] std::optional<std::uint64_t> read_checked_file(
    const std::string& path, const std::uint8_t (&magic)[8],
    std::uint32_t version, std::size_t record_bytes,
    std::vector<std::uint8_t>* buf, std::string* why);

}  // namespace dmm::core

#endif  // DMM_CORE_CHECKED_FILE_H
