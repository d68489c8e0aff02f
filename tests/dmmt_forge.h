// Byte-level forgery of .dmmt files for the tests that feed a reader a
// hostile trace.  Every edit re-seals the checksums it touched, so the
// file passes integrity checks and only the forged field is at fault.

#ifndef DMM_TESTS_DMMT_FORGE_H
#define DMM_TESTS_DMMT_FORGE_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dmm/core/cache_snapshot.h"
#include "dmm/trace/trace_store.h"
#include "dmm/workloads/workload.h"

namespace dmm::trace::forge {

inline std::uint64_t get_le(const std::vector<std::uint8_t>& b,
                            std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) v = (v << 8) | b[at + i];
  return v;
}

inline void set_le(std::vector<std::uint8_t>* b, std::size_t at, int width,
                   std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    (*b)[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Re-seals the header checksum (over bytes [0, 80)).
inline void reseal_header(std::vector<std::uint8_t>* b) {
  set_le(b, 80, 8, core::snapshot_checksum(b->data(), 80));
}

/// Re-seals the block whose prefix starts at @p offset.
inline void reseal_block(std::vector<std::uint8_t>* b, std::size_t offset) {
  const std::size_t sealed = 8 + get_le(*b, offset, 4);
  set_le(b, offset + sealed, 8,
         core::snapshot_checksum(b->data() + offset, sealed));
}

/// Re-seals the block index (from the header's index_offset to the end).
inline void reseal_index(std::vector<std::uint8_t>* b) {
  const std::size_t at = get_le(*b, 32, 8);
  const std::size_t sealed = b->size() - 8 - at;
  set_le(b, b->size() - 8, 8, core::snapshot_checksum(b->data() + at, sealed));
}

/// Writes a one-block DRR trace to @p path whose checksums all hold but
/// whose payload does not decode: the last byte of block 0 (the final
/// phase varint) gets a continuation bit, so the varint runs off the end.
inline bool write_undecodable_trace(const std::string& path) {
  core::AllocTrace t =
      workloads::record_trace(workloads::case_study("drr"), 7);
  t.truncate(1280);
  if (!write_trace_file(t, path)) return false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> b(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  const bool read = std::fread(b.data(), 1, b.size(), f) == b.size();
  std::fclose(f);
  if (!read) return false;
  b[kTraceHeaderBytes + 8 + get_le(b, kTraceHeaderBytes, 4) - 1] = 0x80u;
  reseal_block(&b, kTraceHeaderBytes);
  f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(b.data(), 1, b.size(), f) == b.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace dmm::trace::forge

#endif  // DMM_TESTS_DMMT_FORGE_H
