#include "dmm/trace/trace_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "dmm/core/cache_snapshot.h"
#include "dmm/trace/trace_codec.h"

namespace dmm::trace {

using core::AllocEvent;
using core::snapshot_checksum;

namespace {

void put_u32(std::vector<std::uint8_t>* b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    b->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>* b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    b->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double read_f64(const std::uint8_t* p) {
  const std::uint64_t bits = read_u64(p);
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void put_f64(std::vector<std::uint8_t>* b, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  put_u64(b, bits);
}

bool set_why(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
  return false;
}

/// Serializes TraceStats into the stats-blob payload.
std::vector<std::uint8_t> encode_stats(const core::TraceStats& s) {
  std::vector<std::uint8_t> out;
  put_u64(&out, s.events);
  put_u64(&out, s.allocs);
  put_u64(&out, s.frees);
  put_u64(&out, s.peak_live_bytes);
  put_u64(&out, s.peak_live_blocks);
  put_u64(&out, s.distinct_sizes);
  put_u32(&out, s.min_size);
  put_u32(&out, s.max_size);
  put_f64(&out, s.mean_size);
  put_f64(&out, s.mean_lifetime_events);
  put_u32(&out, s.phases);
  put_u32(&out, static_cast<std::uint32_t>(s.class_histogram.size()));
  for (const auto& [cls, count] : s.class_histogram) {
    put_u32(&out, cls);
    put_u64(&out, count);
  }
  put_u32(&out, static_cast<std::uint32_t>(s.top_sizes.size()));
  put_u32(&out, 0);  // reserved
  for (const auto& [size, count] : s.top_sizes) {
    put_u32(&out, size);
    put_u64(&out, count);
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
  s->events = read_u64(p);
  p += 8;
  s->allocs = read_u64(p);
  p += 8;
  s->frees = read_u64(p);
  p += 8;
  s->peak_live_bytes = read_u64(p);
  p += 8;
  s->peak_live_blocks = read_u64(p);
  p += 8;
  s->distinct_sizes = read_u64(p);
  p += 8;
  s->min_size = read_u32(p);
  p += 4;
  s->max_size = read_u32(p);
  p += 4;
  s->mean_size = read_f64(p);
  p += 8;
  s->mean_lifetime_events = read_f64(p);
  p += 8;
  const std::uint32_t phases = read_u32(p);
  p += 4;
  if (phases > 0xffffu) return false;
  s->phases = static_cast<std::uint16_t>(phases);
  const std::uint32_t hist = read_u32(p);
  p += 4;
  if (hist > 4096) return false;
  for (std::uint32_t i = 0; i < hist; ++i) {
    if (!need(12)) return false;
    const std::uint32_t cls = read_u32(p);
    p += 4;
    s->class_histogram[cls] = read_u64(p);
    p += 8;
  }
  if (!need(8)) return false;
  const std::uint32_t top = read_u32(p);
  p += 8;  // count + reserved
  if (top > 4096) return false;
  for (std::uint32_t i = 0; i < top; ++i) {
    if (!need(12)) return false;
    const std::uint32_t size = read_u32(p);
    p += 4;
    s->top_sizes[size] = read_u64(p);
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
  std::string tmp = path + ".tmp";
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
  put_u32(&block, static_cast<std::uint32_t>(payload_.size()));
  put_u32(&block, static_cast<std::uint32_t>(buf_.size()));
  block.insert(block.end(), payload_.begin(), payload_.end());
  put_u64(&block, snapshot_checksum(block.data(), block.size()));
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
  put_u32(&blob, static_cast<std::uint32_t>(stats_payload.size()));
  put_u32(&blob, 0);
  blob.insert(blob.end(), stats_payload.begin(), stats_payload.end());
  put_u64(&blob, snapshot_checksum(stats_payload.data(),
                                   stats_payload.size()));
  const std::uint64_t index_offset = stats_offset + blob.size();
  // Block index.
  std::vector<std::uint8_t> index;
  put_u32(&index, static_cast<std::uint32_t>(index_.size()));
  put_u32(&index, 0);
  for (const IndexEntry& e : index_) {
    put_u64(&index, e.offset);
    put_u64(&index, e.first_event);
    put_u32(&index, e.events);
    put_u32(&index, 0);
  }
  put_u64(&index, snapshot_checksum(index.data(), index.size()));
  const std::uint64_t file_bytes = index_offset + index.size();
  // Header.
  const core::TraceIdBounds bounds = acc_.id_bounds();
  std::vector<std::uint8_t> header;
  header.reserve(kTraceHeaderBytes);
  put_u32(&header, kTraceMagic);
  put_u32(&header, kTraceVersion);
  put_u64(&header, acc_.events());
  put_u64(&header, acc_.fingerprint());
  put_u32(&header, opts_.block_events);
  put_u32(&header, static_cast<std::uint32_t>(index_.size()));
  put_u64(&header, index_offset);
  put_u64(&header, stats_offset);
  put_u64(&header, file_bytes);
  put_u32(&header, bounds.max_id);
  put_u32(&header, 0);
  put_u64(&header, bounds.allocs);
  put_u64(&header, 0);
  put_u64(&header, snapshot_checksum(header.data(), header.size()));
  const bool ok =
      std::fwrite(blob.data(), 1, blob.size(), f_) == blob.size() &&
      std::fwrite(index.data(), 1, index.size(), f_) == index.size() &&
      std::fseek(f_, 0, SEEK_SET) == 0 &&
      std::fwrite(header.data(), 1, header.size(), f_) == header.size() &&
      std::fflush(f_) == 0;
  if (!ok) {
    set_why(why, "write failed on " + tmp_path_);
    return abort_write();
  }
  std::fclose(f_);
  f_ = nullptr;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    set_why(why, "rename to " + path_ + " failed");
    std::remove(tmp_path_.c_str());
    finished_ = true;
    failed_ = true;
    return false;
  }
  finished_ = true;
  return true;
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
  if (read_u32(h) != kTraceMagic) return reject("bad magic");
  const std::uint32_t version = read_u32(h + 4);
  if (version == 0 || version > kTraceVersion) {
    return reject("unsupported version " + std::to_string(version));
  }
  if (read_u64(h + 80) != snapshot_checksum(h, 80)) {
    return reject("header checksum mismatch");
  }
  t->event_count_ = read_u64(h + 8);
  t->fingerprint_ = read_u64(h + 16);
  t->block_events_ = read_u32(h + 24);
  const std::uint32_t block_count = read_u32(h + 28);
  const std::uint64_t index_offset = read_u64(h + 32);
  const std::uint64_t stats_offset = read_u64(h + 40);
  t->file_bytes_ = read_u64(h + 48);
  t->bounds_.max_id = read_u32(h + 56);
  t->bounds_.allocs = read_u64(h + 64);
  if (t->file_bytes_ != len) return reject("declared size != file size");
  if (t->block_events_ == 0) return reject("zero block_events");
  if (stats_offset < kTraceHeaderBytes || stats_offset > len ||
      index_offset < stats_offset || index_offset > len) {
    return reject("section offsets out of bounds");
  }
  // Stats blob.
  if (index_offset - stats_offset < 16) return reject("stats blob truncated");
  const std::uint8_t* const sb = t->base_ + stats_offset;
  const std::uint32_t stats_bytes = read_u32(sb);
  if (16 + static_cast<std::uint64_t>(stats_bytes) !=
      index_offset - stats_offset) {
    return reject("stats blob size mismatch");
  }
  if (read_u64(sb + 8 + stats_bytes) !=
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
  if (read_u32(ib) != block_count) return reject("block index count mismatch");
  if (16 + static_cast<std::uint64_t>(block_count) * 24 != index_bytes) {
    return reject("block index size mismatch");
  }
  if (read_u64(ib + index_bytes - 8) !=
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
    ref.offset = read_u64(e);
    ref.first_event = read_u64(e + 8);
    ref.events = read_u32(e + 16);
    if (ref.offset != next_offset || ref.first_event != next_event) {
      return reject("block index entries non-contiguous");
    }
    if (ref.events == 0 || ref.events > t->block_events_) {
      return reject("block event count out of range");
    }
    if (ref.offset + 16 > stats_offset) return reject("block out of bounds");
    const std::uint8_t* const blk = t->base_ + ref.offset;
    const std::uint64_t payload_bytes = read_u32(blk);
    if (ref.offset + 8 + payload_bytes + 8 > stats_offset) {
      return reject("block payload out of bounds");
    }
    if (read_u32(blk + 4) != ref.events) {
      return reject("block prefix disagrees with index");
    }
    // The id column spends >= 1 varint byte per event, so a block that
    // claims more events than payload bytes is forged.
    if (ref.events > payload_bytes) return reject("block events > payload");
    if (read_u64(blk + 8 + payload_bytes) !=
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
  const std::uint32_t payload_bytes = read_u32(blk);
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
    const std::uint32_t payload_bytes = read_u32(blk);
    if (read_u64(blk + 8 + payload_bytes) !=
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

bool is_trace_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::uint8_t magic[4] = {};
  const bool ok = std::fread(magic, 1, 4, f) == 4;
  std::fclose(f);
  return ok && read_u32(magic) == kTraceMagic;
}

}  // namespace dmm::trace
