#ifndef DMM_TRACE_TRACE_STORE_H
#define DMM_TRACE_TRACE_STORE_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dmm/core/trace.h"

namespace dmm::trace {

/// The DMMT on-disk trace format: versioned, mmap-able, columnar.
///
/// Byte layout (all integers little-endian):
///
///   header (88 bytes)
///     u32 magic "DMMT"         u32 version
///     u64 event_count          u64 fingerprint
///     u32 block_events         u32 block_count
///     u64 index_offset         u64 stats_offset
///     u64 file_bytes           u32 max_id        u32 reserved
///     u64 alloc_count          u64 reserved2
///     u64 header_checksum      (FNV-1a over bytes [0, 80))
///   event blocks (block_count, back to back from offset 88)
///     u32 payload_bytes        u32 events_in_block
///     payload                  (columnar codec, trace_codec.h)
///     u64 block_checksum       (FNV-1a over prefix + payload)
///   stats blob (at stats_offset)
///     u32 blob_bytes  u32 reserved  payload  u64 checksum
///   block index (at index_offset)
///     u32 entry_count  u32 reserved
///     { u64 offset, u64 first_event, u32 events, u32 reserved } ...
///     u64 index_checksum
///
/// Integrity discipline matches checked_file.h: the reader trusts
/// nothing.  open() rejects — whole, with a reason — a missing or short
/// file, a bad magic, a future version, a header/stats/index checksum
/// mismatch, a declared size that disagrees with the actual file, an
/// index that is non-monotone or points outside the block region, and
/// any block whose checksum or declared coverage is wrong (including more
/// events than payload bytes).  A trace that opens is structurally sound
/// end to end; block payloads are decoded lazily per cursor with fully
/// bounds-checked column parsing.  Decode buffers are sized by the largest
/// block the index holds, never by the header's block_events claim.
///
/// The header carries the event-stream fingerprint (same definition as
/// AllocTrace::fingerprint), the full TraceStats, and the id bounds, so
/// identity and profiling are O(1) after open.

inline constexpr std::uint32_t kTraceMagic = 0x544d4d44u;  // "DMMT"
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::uint32_t kDefaultBlockEvents = 4096;
inline constexpr std::size_t kTraceHeaderBytes = 88;

/// Streams events into a DMMT file in one pass: blocks are encoded and
/// written as they fill, stats/fingerprint accumulate alongside, and
/// finish() appends the stats blob and block index, back-patches the
/// header, and atomically renames a uniquely named temp sibling
/// (core::unique_temp_path) into place — a crash never leaves a torn .dmmt
/// behind, and two writers to one path last-writer-win.  Writer memory is
/// O(block + live objects + distinct sizes), independent of total event
/// count.
class TraceWriter {
 public:
  struct Options {
    std::uint32_t block_events = kDefaultBlockEvents;
  };

  /// Opens @p path for writing (via a unique temp sibling).  Null + @p why
  /// on I/O failure.
  [[nodiscard]] static std::unique_ptr<TraceWriter> create(
      const std::string& path, const Options& opts,
      std::string* why = nullptr);
  [[nodiscard]] static std::unique_ptr<TraceWriter> create(
      const std::string& path, std::string* why = nullptr);

  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Appends one event.  Free events are normalized to size 0 *before*
  /// fingerprinting, so the file's identity always equals the identity of
  /// its decoded stream.
  void add(core::AllocEvent e);

  [[nodiscard]] std::uint64_t events() const { return acc_.events(); }

  /// Flushes, finalizes, and renames into place.  False + @p why on I/O
  /// failure (the temp file is removed).  Idempotent; the destructor
  /// calls it best-effort if the caller did not.
  bool finish(std::string* why = nullptr);

 private:
  TraceWriter(std::FILE* f, std::string path, std::string tmp_path,
              Options opts);
  bool flush_block();
  bool abort_write();

  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint64_t first_event = 0;
    std::uint32_t events = 0;
  };

  std::FILE* f_ = nullptr;
  std::string path_;
  std::string tmp_path_;
  Options opts_;
  core::TraceAccumulator acc_;
  std::vector<core::AllocEvent> buf_;
  std::vector<std::uint8_t> payload_;
  std::vector<IndexEntry> index_;
  std::uint64_t next_offset_ = kTraceHeaderBytes;
  bool finished_ = false;
  bool failed_ = false;
};

/// Read side: memory-maps a DMMT file and serves it as a TraceSource.
/// event_count / fingerprint / stats / id_bounds come straight from the
/// validated header; cursors decode one block at a time into a private
/// buffer, so any number of concurrent replays stream the same immutable
/// mapping with O(block) memory each.
class MappedTrace final : public core::TraceSource {
 public:
  /// Validates everything (see the format comment) before returning; a
  /// file that fails any check yields null and a reason in @p why.
  [[nodiscard]] static std::unique_ptr<MappedTrace> open(
      const std::string& path, std::string* why = nullptr);

  ~MappedTrace() override;
  MappedTrace(const MappedTrace&) = delete;
  MappedTrace& operator=(const MappedTrace&) = delete;

  [[nodiscard]] std::uint64_t event_count() const override {
    return event_count_;
  }
  [[nodiscard]] std::uint64_t fingerprint() const override {
    return fingerprint_;
  }
  [[nodiscard]] core::TraceStats stats() const override { return stats_; }
  [[nodiscard]] core::TraceIdBounds id_bounds() const override {
    return bounds_;
  }
  [[nodiscard]] std::unique_ptr<core::TraceCursor> cursor() const override;

  [[nodiscard]] std::uint32_t block_events() const { return block_events_; }
  [[nodiscard]] std::uint32_t block_count() const {
    return static_cast<std::uint32_t>(blocks_.size());
  }
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }

  /// Bytes of decoded-event buffer one cursor holds: the largest block
  /// in the index x sizeof(AllocEvent), independent of trace length (the
  /// test_trace_store cursor accounting checks this).
  [[nodiscard]] std::size_t cursor_buffer_bytes() const {
    return static_cast<std::size_t>(buffer_events_) *
           sizeof(core::AllocEvent);
  }

  /// Re-verifies every block checksum AND fully decodes every block
  /// (trace_tool `info --check`).  open() already checksummed the blocks;
  /// this additionally proves each payload parses.
  [[nodiscard]] bool verify_blocks(std::string* why = nullptr) const;

  /// Decodes the whole file into an in-memory AllocTrace (the daemon's
  /// ingestion path for request-supplied .dmmt files).  Throws
  /// std::runtime_error on a payload that fails to decode.
  [[nodiscard]] core::AllocTrace materialize() const;

 private:
  friend class MappedCursor;
  struct BlockRef {
    std::uint64_t offset = 0;       ///< file offset of the block prefix
    std::uint64_t first_event = 0;
    std::uint32_t events = 0;
  };

  MappedTrace() = default;

  /// Decodes block @p b into @p out (capacity >= buffer_events_); throws
  /// std::runtime_error on malformed payload.
  void decode_block_at(std::size_t b, core::AllocEvent* out) const;

  const std::uint8_t* base_ = nullptr;
  std::size_t map_len_ = 0;
  std::uint64_t event_count_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t file_bytes_ = 0;
  std::uint32_t block_events_ = 0;   ///< the header's declared block size
  std::uint32_t buffer_events_ = 0;  ///< the largest block the index holds
  core::TraceIdBounds bounds_;
  core::TraceStats stats_;
  std::vector<BlockRef> blocks_;
};

/// Encodes an in-memory trace to @p path.  False + @p why on failure.
bool write_trace_file(const core::AllocTrace& trace, const std::string& path,
                      const TraceWriter::Options& opts = {},
                      std::string* why = nullptr);

}  // namespace dmm::trace

#endif  // DMM_TRACE_TRACE_STORE_H
