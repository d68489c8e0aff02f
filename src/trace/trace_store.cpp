#include "dmm/trace/trace_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "dmm/core/checked_file.h"
#include "dmm/trace/trace_codec.h"

namespace dmm::trace {

using core::AllocEvent;
using core::append_le;
using core::load_le;
using core::snapshot_checksum;

namespace {

bool set_why(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
  return false;
}

/// Serializes TraceStats into the stats-blob payload.
std::vector<std::uint8_t> encode_stats(const core::TraceStats& s) {
  std::vector<std::uint8_t> out;
  append_le<std::uint64_t>(out, s.events);
  append_le<std::uint64_t>(out, s.allocs);
  append_le<std::uint64_t>(out, s.frees);
  append_le<std::uint64_t>(out, s.peak_live_bytes);
  append_le<std::uint64_t>(out, s.peak_live_blocks);
  append_le<std::uint64_t>(out, s.distinct_sizes);
  append_le<std::uint32_t>(out, s.min_size);
  append_le<std::uint32_t>(out, s.max_size);
  append_le<double>(out, s.mean_size);
  append_le<double>(out, s.mean_lifetime_events);
  append_le<std::uint32_t>(out, s.phases);
  append_le<std::uint32_t>(out, s.class_histogram.size());
  for (const auto& [cls, count] : s.class_histogram) {
    append_le<std::uint32_t>(out, cls);
    append_le<std::uint64_t>(out, count);
  }
  append_le<std::uint32_t>(out, s.top_sizes.size());
  append_le<std::uint32_t>(out, 0);  // reserved
  for (const auto& [size, count] : s.top_sizes) {
    append_le<std::uint32_t>(out, size);
    append_le<std::uint64_t>(out, count);
  }
  return out;
}

/// Bounds-checked stats-blob parse; false on any overrun or insane count.
bool decode_stats(const std::uint8_t* p, std::size_t len,
                  core::TraceStats* s) {
  const std::uint8_t* const end = p + len;
  const auto need = [&](std::size_t n) {
    return static_cast<std::size_t>(end - p) >= n;
  };
  if (!need(6 * 8 + 2 * 4 + 2 * 8 + 2 * 4)) return false;
  s->events = load_le<std::uint64_t>(p);
  p += 8;
  s->allocs = load_le<std::uint64_t>(p);
  p += 8;
  s->frees = load_le<std::uint64_t>(p);
  p += 8;
  s->peak_live_bytes = load_le<std::uint64_t>(p);
  p += 8;
  s->peak_live_blocks = load_le<std::uint64_t>(p);
  p += 8;
  s->distinct_sizes = load_le<std::uint64_t>(p);
  p += 8;
  s->min_size = load_le<std::uint32_t>(p);
  p += 4;
  s->max_size = load_le<std::uint32_t>(p);
  p += 4;
  s->mean_size = load_le<double>(p);
  p += 8;
  s->mean_lifetime_events = load_le<double>(p);
  p += 8;
  const std::uint32_t phases = load_le<std::uint32_t>(p);
  p += 4;
  if (phases > 0xffffu) return false;
  s->phases = static_cast<std::uint16_t>(phases);
  const std::uint32_t hist = load_le<std::uint32_t>(p);
  p += 4;
  if (hist > 4096) return false;
  for (std::uint32_t i = 0; i < hist; ++i) {
    if (!need(12)) return false;
    const std::uint32_t cls = load_le<std::uint32_t>(p);
    p += 4;
    s->class_histogram[cls] = load_le<std::uint64_t>(p);
    p += 8;
  }
  if (!need(8)) return false;
  const std::uint32_t top = load_le<std::uint32_t>(p);
  p += 8;  // count + reserved
  if (top > 4096) return false;
  for (std::uint32_t i = 0; i < top; ++i) {
    if (!need(12)) return false;
    const std::uint32_t size = load_le<std::uint32_t>(p);
    p += 4;
    s->top_sizes[size] = load_le<std::uint64_t>(p);
    p += 8;
  }
  return p == end;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(std::FILE* f, std::string path, std::string tmp_path,
                         Options opts)
    : f_(f),
      path_(std::move(path)),
      tmp_path_(std::move(tmp_path)),
      opts_(opts) {
  buf_.reserve(opts_.block_events);
}

std::unique_ptr<TraceWriter> TraceWriter::create(const std::string& path,
                                                 const Options& opts,
                                                 std::string* why) {
  Options o = opts;
  if (o.block_events == 0) o.block_events = kDefaultBlockEvents;
  std::string tmp = core::unique_temp_path(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    set_why(why, "cannot open " + tmp + " for writing");
    return nullptr;
  }
  // Header placeholder; finish() back-patches the real one.
  const std::uint8_t zeros[kTraceHeaderBytes] = {};
  if (std::fwrite(zeros, 1, sizeof(zeros), f) != sizeof(zeros)) {
    std::fclose(f);
    std::remove(tmp.c_str());
    set_why(why, "write failed on " + tmp);
    return nullptr;
  }
  return std::unique_ptr<TraceWriter>(
      new TraceWriter(f, path, std::move(tmp), o));
}

std::unique_ptr<TraceWriter> TraceWriter::create(const std::string& path,
                                                 std::string* why) {
  return create(path, Options{}, why);
}

TraceWriter::~TraceWriter() {
  if (!finished_) (void)finish(nullptr);
}

void TraceWriter::add(AllocEvent e) {
  if (e.op == AllocEvent::Op::kFree) e.size = 0;
  acc_.add(e);
  buf_.push_back(e);
  if (buf_.size() >= opts_.block_events) (void)flush_block();
}

bool TraceWriter::flush_block() {
  if (buf_.empty() || failed_) return !failed_;
  encode_block(buf_.data(), buf_.size(), &payload_);
  std::vector<std::uint8_t> block;
  block.reserve(payload_.size() + 16);
  append_le<std::uint32_t>(block, payload_.size());
  append_le<std::uint32_t>(block, buf_.size());
  block.insert(block.end(), payload_.begin(), payload_.end());
  append_le<std::uint64_t>(block,
                           snapshot_checksum(block.data(), block.size()));
  IndexEntry entry;
  entry.offset = next_offset_;
  entry.first_event = acc_.events() - buf_.size();
  entry.events = static_cast<std::uint32_t>(buf_.size());
  if (std::fwrite(block.data(), 1, block.size(), f_) != block.size()) {
    failed_ = true;
    return false;
  }
  index_.push_back(entry);
  next_offset_ += block.size();
  buf_.clear();
  return true;
}

bool TraceWriter::abort_write() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
  std::remove(tmp_path_.c_str());
  finished_ = true;
  failed_ = true;
  return false;
}

bool TraceWriter::finish(std::string* why) {
  if (finished_) return !failed_;
  if (!flush_block()) {
    set_why(why, "write failed on " + tmp_path_);
    return abort_write();
  }
  const std::uint64_t stats_offset = next_offset_;
  // Stats blob.
  const std::vector<std::uint8_t> stats_payload = encode_stats(acc_.stats());
  std::vector<std::uint8_t> blob;
  append_le<std::uint32_t>(blob, stats_payload.size());
  append_le<std::uint32_t>(blob, 0);
  blob.insert(blob.end(), stats_payload.begin(), stats_payload.end());
  append_le<std::uint64_t>(
      blob, snapshot_checksum(stats_payload.data(), stats_payload.size()));
  const std::uint64_t index_offset = stats_offset + blob.size();
  // Block index.
  std::vector<std::uint8_t> index;
  append_le<std::uint32_t>(index, index_.size());
  append_le<std::uint32_t>(index, 0);
  for (const IndexEntry& e : index_) {
    append_le<std::uint64_t>(index, e.offset);
    append_le<std::uint64_t>(index, e.first_event);
    append_le<std::uint32_t>(index, e.events);
    append_le<std::uint32_t>(index, 0);
  }
  append_le<std::uint64_t>(index,
                           snapshot_checksum(index.data(), index.size()));
  const std::uint64_t file_bytes = index_offset + index.size();
  // Header.
  const core::TraceIdBounds bounds = acc_.id_bounds();
  std::vector<std::uint8_t> header;
  header.reserve(kTraceHeaderBytes);
  append_le<std::uint32_t>(header, kTraceMagic);
  append_le<std::uint32_t>(header, kTraceVersion);
  append_le<std::uint64_t>(header, acc_.events());
  append_le<std::uint64_t>(header, acc_.fingerprint());
  append_le<std::uint32_t>(header, opts_.block_events);
  append_le<std::uint32_t>(header, index_.size());
  append_le<std::uint64_t>(header, index_offset);
  append_le<std::uint64_t>(header, stats_offset);
  append_le<std::uint64_t>(header, file_bytes);
  append_le<std::uint32_t>(header, bounds.max_id);
  append_le<std::uint32_t>(header, 0);
  append_le<std::uint64_t>(header, bounds.allocs);
  append_le<std::uint64_t>(header, 0);
  append_le<std::uint64_t>(
      header, snapshot_checksum(header.data(), header.size()));
  bool ok =
      std::fwrite(blob.data(), 1, blob.size(), f_) == blob.size() &&
      std::fwrite(index.data(), 1, index.size(), f_) == index.size() &&
      std::fseek(f_, 0, SEEK_SET) == 0 &&
      std::fwrite(header.data(), 1, header.size(), f_) == header.size();
  // fclose flushes: a full disk may only show here.
  ok = std::fclose(f_) == 0 && ok;
  f_ = nullptr;
  if (!ok) {
    set_why(why, "write failed on " + tmp_path_);
    return abort_write();
  }
  finished_ = true;
  failed_ = !core::rename_into_place(tmp_path_, path_, why);
  return !failed_;
}

// ---------------------------------------------------------------------------
// MappedTrace
// ---------------------------------------------------------------------------

MappedTrace::~MappedTrace() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(base_), map_len_);
  }
}

std::unique_ptr<MappedTrace> MappedTrace::open(const std::string& path,
                                               std::string* why) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    set_why(why, path + ": cannot open");
    return nullptr;
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    set_why(why, path + ": cannot stat");
    return nullptr;
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  if (len < kTraceHeaderBytes) {
    ::close(fd);
    set_why(why, path + ": truncated header");
    return nullptr;
  }
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    set_why(why, path + ": mmap failed");
    return nullptr;
  }
  auto t = std::unique_ptr<MappedTrace>(new MappedTrace());
  t->base_ = static_cast<const std::uint8_t*>(map);
  t->map_len_ = len;
  const std::uint8_t* const h = t->base_;
  const auto reject = [&](const std::string& msg) {
    set_why(why, path + ": " + msg);
    return std::unique_ptr<MappedTrace>();  // t unmaps via its destructor
  };
  if (load_le<std::uint32_t>(h) != kTraceMagic) return reject("bad magic");
  const std::uint32_t version = load_le<std::uint32_t>(h + 4);
  if (version == 0 || version > kTraceVersion) {
    return reject("unsupported version " + std::to_string(version));
  }
  if (load_le<std::uint64_t>(h + 80) != snapshot_checksum(h, 80)) {
    return reject("header checksum mismatch");
  }
  t->event_count_ = load_le<std::uint64_t>(h + 8);
  t->fingerprint_ = load_le<std::uint64_t>(h + 16);
  t->block_events_ = load_le<std::uint32_t>(h + 24);
  const std::uint32_t block_count = load_le<std::uint32_t>(h + 28);
  const std::uint64_t index_offset = load_le<std::uint64_t>(h + 32);
  const std::uint64_t stats_offset = load_le<std::uint64_t>(h + 40);
  t->file_bytes_ = load_le<std::uint64_t>(h + 48);
  t->bounds_.max_id = load_le<std::uint32_t>(h + 56);
  t->bounds_.allocs = load_le<std::uint64_t>(h + 64);
  if (t->file_bytes_ != len) return reject("declared size != file size");
  if (t->block_events_ == 0) return reject("zero block_events");
  if (stats_offset < kTraceHeaderBytes || stats_offset > len ||
      index_offset < stats_offset || index_offset > len) {
    return reject("section offsets out of bounds");
  }
  // Stats blob.
  if (index_offset - stats_offset < 16) return reject("stats blob truncated");
  const std::uint8_t* const sb = t->base_ + stats_offset;
  const std::uint32_t stats_bytes = load_le<std::uint32_t>(sb);
  if (16 + static_cast<std::uint64_t>(stats_bytes) !=
      index_offset - stats_offset) {
    return reject("stats blob size mismatch");
  }
  if (load_le<std::uint64_t>(sb + 8 + stats_bytes) !=
      snapshot_checksum(sb + 8, stats_bytes)) {
    return reject("stats blob checksum mismatch");
  }
  if (!decode_stats(sb + 8, stats_bytes, &t->stats_)) {
    return reject("stats blob malformed");
  }
  // Block index.
  const std::uint64_t index_bytes = len - index_offset;
  if (index_bytes < 16) return reject("block index truncated");
  const std::uint8_t* const ib = t->base_ + index_offset;
  if (load_le<std::uint32_t>(ib) != block_count) {
    return reject("block index count mismatch");
  }
  if (16 + static_cast<std::uint64_t>(block_count) * 24 != index_bytes) {
    return reject("block index size mismatch");
  }
  if (load_le<std::uint64_t>(ib + index_bytes - 8) !=
      snapshot_checksum(ib, index_bytes - 8)) {
    return reject("block index checksum mismatch");
  }
  // Walk the index: entries must tile [header, stats_offset) exactly, in
  // order, and every block's prefix and checksum must agree with them.
  t->blocks_.reserve(block_count);
  std::uint64_t next_offset = kTraceHeaderBytes;
  std::uint64_t next_event = 0;
  for (std::uint32_t b = 0; b < block_count; ++b) {
    const std::uint8_t* const e = ib + 8 + 24 * static_cast<std::size_t>(b);
    BlockRef ref;
    ref.offset = load_le<std::uint64_t>(e);
    ref.first_event = load_le<std::uint64_t>(e + 8);
    ref.events = load_le<std::uint32_t>(e + 16);
    if (ref.offset != next_offset || ref.first_event != next_event) {
      return reject("block index entries non-contiguous");
    }
    if (ref.events == 0 || ref.events > t->block_events_) {
      return reject("block event count out of range");
    }
    if (ref.offset + 16 > stats_offset) return reject("block out of bounds");
    const std::uint8_t* const blk = t->base_ + ref.offset;
    const std::uint64_t payload_bytes = load_le<std::uint32_t>(blk);
    if (ref.offset + 8 + payload_bytes + 8 > stats_offset) {
      return reject("block payload out of bounds");
    }
    if (load_le<std::uint32_t>(blk + 4) != ref.events) {
      return reject("block prefix disagrees with index");
    }
    // The id column spends >= 1 varint byte per event, so a block that
    // claims more events than payload bytes is forged.
    if (ref.events > payload_bytes) return reject("block events > payload");
    if (load_le<std::uint64_t>(blk + 8 + payload_bytes) !=
        snapshot_checksum(blk, 8 + payload_bytes)) {
      return reject("block checksum mismatch");
    }
    next_offset = ref.offset + 8 + payload_bytes + 8;
    next_event = ref.first_event + ref.events;
    t->buffer_events_ = std::max(t->buffer_events_, ref.events);
    t->blocks_.push_back(ref);
  }
  if (next_offset != stats_offset) return reject("block region has a gap");
  if (next_event != t->event_count_) return reject("event count mismatch");
  return t;
}

void MappedTrace::decode_block_at(std::size_t b, AllocEvent* out) const {
  const BlockRef& ref = blocks_[b];
  const std::uint8_t* const blk = base_ + ref.offset;
  const std::uint32_t payload_bytes = load_le<std::uint32_t>(blk);
  if (!decode_block(blk + 8, payload_bytes, ref.events, out)) {
    throw std::runtime_error("dmmt: block " + std::to_string(b) +
                             " failed to decode");
  }
}

/// Streams a MappedTrace block by block through one fixed decode buffer.
/// Namespace-scope (not anonymous) so MappedTrace's friend declaration
/// grants it access to the block index.
class MappedCursor final : public core::TraceCursor {
 public:
  explicit MappedCursor(const MappedTrace* t)
      : t_(t), buf_(t->buffer_events_) {}

  std::size_t next(const AllocEvent** run) override;

 private:
  const MappedTrace* t_;
  std::vector<AllocEvent> buf_;
  std::size_t block_ = 0;  ///< next block to decode
};

std::size_t MappedCursor::next(const AllocEvent** run) {
  if (block_ >= t_->block_count()) return 0;
  const std::uint32_t events = t_->blocks_[block_].events;
  t_->decode_block_at(block_, buf_.data());
  ++block_;
  *run = buf_.data();
  return events;
}

std::unique_ptr<core::TraceCursor> MappedTrace::cursor() const {
  return std::make_unique<MappedCursor>(this);
}

bool MappedTrace::verify_blocks(std::string* why) const {
  std::vector<AllocEvent> scratch(buffer_events_);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const BlockRef& ref = blocks_[b];
    const std::uint8_t* const blk = base_ + ref.offset;
    const std::uint32_t payload_bytes = load_le<std::uint32_t>(blk);
    if (load_le<std::uint64_t>(blk + 8 + payload_bytes) !=
        snapshot_checksum(blk, 8 + payload_bytes)) {
      return set_why(why, "block " + std::to_string(b) +
                              ": checksum mismatch");
    }
    if (!decode_block(blk + 8, payload_bytes, ref.events, scratch.data())) {
      return set_why(why, "block " + std::to_string(b) +
                              ": payload failed to decode");
    }
  }
  return true;
}

core::AllocTrace MappedTrace::materialize() const {
  core::AllocTrace out;
  std::vector<AllocEvent>& events = out.events();
  events.reserve(static_cast<std::size_t>(event_count_));
  std::vector<AllocEvent> scratch(buffer_events_);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    decode_block_at(b, scratch.data());
    events.insert(events.end(), scratch.begin(),
                  scratch.begin() + blocks_[b].events);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool write_trace_file(const core::AllocTrace& trace, const std::string& path,
                      const TraceWriter::Options& opts, std::string* why) {
  std::unique_ptr<TraceWriter> w = TraceWriter::create(path, opts, why);
  if (w == nullptr) return false;
  for (const AllocEvent& e : trace.events()) w->add(e);
  return w->finish(why);
}

}  // namespace dmm::trace
