// The design-to-deployment artifact (format in config_artifact.h): the
// checked-file envelope and DmmConfig record of core/checked_file.h, which
// the cache snapshot shares, plus the artifact's own checks — at least one
// record, and every vector one CustomManager would accept.  A snapshot is
// an accelerator; an artifact is the deployed layout itself, so a damaged
// one yields no configs at all.

#include "dmm/runtime/config_artifact.h"

#include <optional>
#include <utility>

#include "dmm/alloc/config_rules.h"
#include "dmm/core/checked_file.h"

namespace dmm::runtime {

static_assert(kConfigArtifactHeaderBytes == core::kCheckedHeaderBytes &&
              kConfigArtifactChecksumBytes == core::kCheckedFooterBytes &&
              kConfigRecordBytes == core::kConfigCodecBytes);

ConfigArtifactSaveResult save_config_artifact(
    const std::string& path, const std::vector<alloc::DmmConfig>& configs) {
  ConfigArtifactSaveResult result;
  if (configs.empty()) {
    result.reason = "refusing to write an artifact with no configs";
    return result;
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (const auto why = alloc::unsupported_reason(configs[i])) {
      result.reason = "config " + std::to_string(i) +
                      " is not a deployable vector: " + *why;
      return result;
    }
  }
  std::vector<std::uint8_t> buf =
      core::begin_checked_file(kConfigArtifactMagic, kConfigArtifactVersion,
                               configs.size() * kConfigRecordBytes);
  for (const alloc::DmmConfig& cfg : configs) core::append_config(buf, cfg);
  result.saved =
      core::write_checked_file(path, buf, configs.size(), &result.reason);
  return result;
}

ConfigArtifactLoadResult load_config_artifact(const std::string& path) {
  ConfigArtifactLoadResult result;
  std::vector<std::uint8_t> buf;
  const std::optional<std::uint64_t> count = core::read_checked_file(
      path, kConfigArtifactMagic, kConfigArtifactVersion, kConfigRecordBytes,
      &buf, &result.reason);
  if (!count) return result;
  if (*count == 0) {
    result.reason = "artifact carries no configs";
    return result;
  }
  // Decode and validate every record before publishing any (all-or-nothing).
  std::vector<alloc::DmmConfig> configs(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    if (!core::load_config(
            buf.data() + kConfigArtifactHeaderBytes + i * kConfigRecordBytes,
            &configs[i])) {
      result.reason = "corrupt record " + std::to_string(i);
      return result;
    }
    if (const auto why = alloc::unsupported_reason(configs[i])) {
      result.reason = "record " + std::to_string(i) +
                      " is not a deployable vector: " + *why;
      return result;
    }
  }
  result.loaded = true;
  result.configs = std::move(configs);
  return result;
}

}  // namespace dmm::runtime
