// The design-to-deployment artifact (runtime/config_artifact.h): exact
// round trips, and the all-or-nothing discipline over damaged files — a
// config artifact decides the deployed pool layout, so nothing partial may
// ever come out of one.

#include "dmm/runtime/config_artifact.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/config_rules.h"
#include "dmm/core/checked_file.h"

namespace dmm::runtime {
namespace {

class ConfigArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("dmm_config_artifact_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".dmmconfig"))
                .string();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Stores @p v little-endian at @p at — written out here rather than
  /// taken from the codec, so the tests stay an independent reference.
  static void set_le64(std::string& bytes, std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<char>(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  /// Recomputes the footer, for tests that corrupt one specific field and
  /// must not be caught by the checksum.
  static void reseal(std::string& bytes) {
    const std::size_t body = bytes.size() - kConfigArtifactChecksumBytes;
    set_le64(bytes, body,
             core::snapshot_checksum(
                 reinterpret_cast<const std::uint8_t*>(bytes.data()), body));
  }

  std::string path_;
};

std::vector<alloc::DmmConfig> sample_configs() {
  alloc::DmmConfig a = alloc::drr_paper_config();
  alloc::DmmConfig b = alloc::minimal_config();
  b.chunk_bytes = 4096;
  b.big_request_bytes = 2048;
  return {a, b};
}

TEST_F(ConfigArtifactTest, RoundTripPreservesEveryField) {
  const std::vector<alloc::DmmConfig> configs = sample_configs();
  const ConfigArtifactSaveResult saved = save_config_artifact(path_, configs);
  ASSERT_TRUE(saved.saved) << saved.reason;

  const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
  ASSERT_TRUE(loaded.loaded) << loaded.reason;
  ASSERT_EQ(loaded.configs.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(loaded.configs[i], configs[i]) << "record " << i;
  }
}

TEST_F(ConfigArtifactTest, FileSizeMatchesTheDocumentedLayout) {
  const std::vector<alloc::DmmConfig> configs = sample_configs();
  ASSERT_TRUE(save_config_artifact(path_, configs).saved);
  EXPECT_EQ(read_file().size(), kConfigArtifactHeaderBytes +
                                    configs.size() * kConfigRecordBytes +
                                    kConfigArtifactChecksumBytes);
}

TEST_F(ConfigArtifactTest, SaveRejectsEmptyConfigList) {
  const ConfigArtifactSaveResult saved = save_config_artifact(path_, {});
  EXPECT_FALSE(saved.saved);
  EXPECT_FALSE(std::filesystem::exists(path_)) << "nothing may be written";
}

TEST_F(ConfigArtifactTest, SaveRejectsUndeployableVector) {
  // block_tags=none with recorded info is a hard rule violation — the
  // manager synthesiser would abort on it, so the exporter must refuse.
  alloc::DmmConfig bad;
  bad.block_tags = alloc::BlockTags::kNone;
  ASSERT_TRUE(alloc::unsupported_reason(bad).has_value());
  const ConfigArtifactSaveResult saved = save_config_artifact(path_, {bad});
  EXPECT_FALSE(saved.saved);
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(ConfigArtifactTest, MissingFileLoadsNothing) {
  const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
  EXPECT_FALSE(loaded.loaded);
  EXPECT_TRUE(loaded.configs.empty());
  EXPECT_FALSE(loaded.reason.empty());
}

TEST_F(ConfigArtifactTest, BadMagicRejectsTheWholeFile) {
  ASSERT_TRUE(save_config_artifact(path_, sample_configs()).saved);
  std::string bytes = read_file();
  bytes[0] = 'X';
  write_file(bytes);
  const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
  EXPECT_FALSE(loaded.loaded);
  EXPECT_TRUE(loaded.configs.empty());
}

TEST_F(ConfigArtifactTest, FutureVersionRejectsTheWholeFile) {
  ASSERT_TRUE(save_config_artifact(path_, sample_configs()).saved);
  std::string bytes = read_file();
  bytes[8] = static_cast<char>(kConfigArtifactVersion + 1);
  write_file(bytes);
  EXPECT_FALSE(load_config_artifact(path_).loaded);
}

TEST_F(ConfigArtifactTest, TruncationAnywhereRejectsTheWholeFile) {
  ASSERT_TRUE(save_config_artifact(path_, sample_configs()).saved);
  const std::string bytes = read_file();
  // Every proper prefix must be rejected — sampled densely enough to cover
  // the header boundary, mid-record, and the checksum tail.
  for (std::size_t keep = 0; keep < bytes.size();
       keep += (keep < kConfigArtifactHeaderBytes ? 1 : 7)) {
    write_file(bytes.substr(0, keep));
    const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
    EXPECT_FALSE(loaded.loaded) << "prefix of " << keep << " bytes";
    EXPECT_TRUE(loaded.configs.empty());
  }
}

TEST_F(ConfigArtifactTest, AnySingleBitFlipRejectsTheWholeFile) {
  ASSERT_TRUE(save_config_artifact(path_, {alloc::drr_paper_config()}).saved);
  const std::string bytes = read_file();
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string mutated = bytes;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x01);
    write_file(mutated);
    const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
    EXPECT_FALSE(loaded.loaded) << "bit flip at byte " << at;
    EXPECT_TRUE(loaded.configs.empty());
  }
}

TEST_F(ConfigArtifactTest, CountDisagreeingWithSizeRejects) {
  ASSERT_TRUE(save_config_artifact(path_, sample_configs()).saved);
  std::string bytes = read_file();
  bytes[12] = 5;  // count low byte: claims 5 records, carries 2
  write_file(bytes);
  EXPECT_FALSE(load_config_artifact(path_).loaded);

  // A forged count that wraps the size arithmetic: pad the body by one
  // byte so its length is no longer a multiple of the record size, then
  // store the one count whose naive `header + count * record + footer`
  // wraps mod 2^64 back to the padded file size.  Only a check by
  // division rejects it; the footer is resealed so nothing else does.
  bytes = read_file();
  bytes.insert(bytes.end() - kConfigArtifactChecksumBytes, '\0');
  std::uint64_t inv = 1;  // Newton iteration for record^-1 mod 2^64
  for (int i = 0; i < 6; ++i) inv *= 2 - kConfigRecordBytes * inv;
  ASSERT_EQ(inv * kConfigRecordBytes, 1u);
  const std::uint64_t forged = (bytes.size() - kConfigArtifactHeaderBytes -
                                kConfigArtifactChecksumBytes) *
                               inv;
  ASSERT_GT(forged, std::uint64_t{1} << 32)
      << "the forged count must be absurd";
  set_le64(bytes, 12, forged);
  reseal(bytes);
  write_file(bytes);
  const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
  EXPECT_FALSE(loaded.loaded);
  EXPECT_TRUE(loaded.configs.empty());
  EXPECT_NE(loaded.reason.find("truncated"), std::string::npos)
      << loaded.reason;
}

TEST_F(ConfigArtifactTest, CorruptRecordRejectsTheWholeFile) {
  ASSERT_TRUE(save_config_artifact(path_, sample_configs()).saved);
  const std::string saved = read_file();
  struct Forgery {
    std::size_t at;
    char value;
    const char* reason;
  };
  const Forgery forgeries[] = {
      // First leaf byte of record 1 (after its 8-byte hash): 0xEE is a
      // leaf index no tree has.  Record 0 stays valid, so nothing may come
      // out.
      {kConfigArtifactHeaderBytes + kConfigRecordBytes + 8,
       static_cast<char>(0xEE), "corrupt record 1"},
      // chunk_bytes of record 0 lives right after the 15 leaf bytes;
      // changing it yields a well-formed record whose stored hash no
      // longer matches.
      {kConfigArtifactHeaderBytes + 8 + 15,
       static_cast<char>(saved[kConfigArtifactHeaderBytes + 8 + 15] ^ 0x01),
       "corrupt record 0"},
  };
  for (const Forgery& f : forgeries) {
    std::string bytes = saved;
    bytes[f.at] = f.value;
    reseal(bytes);  // only the record checks may catch it
    write_file(bytes);
    const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
    EXPECT_FALSE(loaded.loaded) << f.reason;
    EXPECT_TRUE(loaded.configs.empty()) << f.reason;
    EXPECT_NE(loaded.reason.find(f.reason), std::string::npos)
        << loaded.reason;
  }
}

// The bytes the parent format wrote for {drr_paper_config(),
// minimal_config()}: the whole file's FNV-1a, pinned so a codec change that
// moves one byte fails here, not in a deployed artifact.
TEST_F(ConfigArtifactTest, WrittenBytesArePinned) {
  ASSERT_TRUE(save_config_artifact(
                  path_, {alloc::drr_paper_config(), alloc::minimal_config()})
                  .saved);
  const std::string bytes = read_file();
  ASSERT_EQ(bytes.size(), 146u);
  EXPECT_EQ(core::snapshot_checksum(
                reinterpret_cast<const std::uint8_t*>(bytes.data()),
                bytes.size()),
            0x6ccd2e349a6cf9f9ull);
}

TEST_F(ConfigArtifactTest, SaveOverwritesAtomically) {
  ASSERT_TRUE(save_config_artifact(path_, sample_configs()).saved);
  const std::vector<alloc::DmmConfig> second = {alloc::minimal_config()};
  ASSERT_TRUE(save_config_artifact(path_, second).saved);
  const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
  ASSERT_TRUE(loaded.loaded) << loaded.reason;
  ASSERT_EQ(loaded.configs.size(), 1u);
  EXPECT_EQ(loaded.configs[0], second[0]);
}

TEST_F(ConfigArtifactTest, ConcurrentSavesLastWriterWinsNoTornFile) {
  const std::vector<alloc::DmmConfig> a = sample_configs();
  const std::vector<alloc::DmmConfig> b = {alloc::minimal_config()};
  constexpr int kRounds = 25;
  std::thread ta([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(save_config_artifact(path_, a).saved);
    }
  });
  std::thread tb([&] {
    for (int i = 0; i < kRounds; ++i) {
      ASSERT_TRUE(save_config_artifact(path_, b).saved);
    }
  });
  ta.join();
  tb.join();
  const ConfigArtifactLoadResult loaded = load_config_artifact(path_);
  ASSERT_TRUE(loaded.loaded) << loaded.reason;
  EXPECT_TRUE(loaded.configs == a || loaded.configs == b);
}

}  // namespace
}  // namespace dmm::runtime
