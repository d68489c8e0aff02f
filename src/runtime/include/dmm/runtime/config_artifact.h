#ifndef DMM_RUNTIME_CONFIG_ARTIFACT_H
#define DMM_RUNTIME_CONFIG_ARTIFACT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dmm/alloc/config.h"

namespace dmm::runtime {

// ---------------------------------------------------------------------------
// The design-to-deployment handoff: a small, versioned, checksummed file
// carrying the winning decision vector(s) from a search CLI (`drr_explore
// --export-config`, `dmm_client --export-config`) to the deployable
// runtime (DesignedAllocator, perfbench deploy-drr).  One record per designed
// phase, in phase order; single-phase and family designs carry one.
//
// On-disk layout: the checked-file envelope and DmmConfig record of
// core/checked_file.h, which the score-cache snapshot shares (little-endian,
// fixed width, never a struct dump):
//
//   header   8 B   magic  "DMMCONFG"
//            4 B   format version (kConfigArtifactVersion)
//            8 B   config count N (>= 1)
//   N records, kConfigRecordBytes each:
//            8 B   alloc::hash_value of the vector (self-check)
//           15 B   one leaf index per decision tree, all_trees() order
//            8 B   chunk_bytes            |
//            8 B   big_request_bytes      |
//            8 B   static_pool_bytes      | numeric knobs
//            8 B   deferred_split_min     |
//            4 B   max_class_log2         |
//   footer   8 B   FNV-1a checksum of every preceding byte
//
// The loader treats the file as untrusted input with the same all-or-
// nothing discipline as the cache snapshot (cache_snapshot.h): bad magic,
// unknown version, a size that disagrees with the count, a checksum
// mismatch, an out-of-range leaf, a hash that disagrees with the decoded
// vector, or a vector the manager synthesiser rejects — any one of them
// rejects the whole file with a reason and yields no configs at all.
// Unlike a cache snapshot, a config artifact IS a correctness input (it
// decides the deployed layout), which is exactly why nothing partial may
// ever come out of a damaged one.
// ---------------------------------------------------------------------------

inline constexpr std::uint8_t kConfigArtifactMagic[8] = {'D', 'M', 'M', 'C',
                                                         'O', 'N', 'F', 'G'};
inline constexpr std::uint32_t kConfigArtifactVersion = 1;
inline constexpr std::size_t kConfigArtifactHeaderBytes = 8 + 4 + 8;
inline constexpr std::size_t kConfigRecordBytes = 8 + 15 + (4 * 8 + 4);
inline constexpr std::size_t kConfigArtifactChecksumBytes = 8;

/// What load_config_artifact made of a file.  `configs` is empty whenever
/// `loaded` is false; `reason` says why.
struct ConfigArtifactLoadResult {
  bool loaded = false;
  std::vector<alloc::DmmConfig> configs;  ///< phase order, >= 1 when loaded
  std::string reason;
};

/// What save_config_artifact did.  The write is atomic (temp + rename), so
/// a concurrent loader never observes a torn artifact.
struct ConfigArtifactSaveResult {
  bool saved = false;
  std::string reason;
};

/// Writes @p configs (>= 1, phase order) to @p path in the format above.
[[nodiscard]] ConfigArtifactSaveResult save_config_artifact(
    const std::string& path, const std::vector<alloc::DmmConfig>& configs);

/// Loads and fully validates an artifact; all-or-nothing (see above).
[[nodiscard]] ConfigArtifactLoadResult load_config_artifact(
    const std::string& path);

}  // namespace dmm::runtime

#endif  // DMM_RUNTIME_CONFIG_ARTIFACT_H
