// The shared byte codec and checked-file envelope (format in
// checked_file.h).

#include "dmm/core/checked_file.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

namespace dmm::core {

std::string unique_temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> seq{0};
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
         "." + std::to_string(seq.fetch_add(1));
}

bool rename_into_place(const std::string& tmp, const std::string& path,
                       std::string* why) {
  if (std::rename(tmp.c_str(), path.c_str()) == 0) return true;
  std::remove(tmp.c_str());
  if (why != nullptr) *why = "rename to " + path + " failed";
  return false;
}

namespace {

/// Reads the whole file into @p out; false when it cannot be opened/read.
bool read_whole_file(const std::string& path,
                     std::vector<std::uint8_t>* out) {
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

/// Writes @p bytes to a unique_temp_path sibling of @p path and renames it
/// into place; false + @p why (the temp file removed) on any I/O failure.
bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes,
                       std::string* why) {
  const std::string tmp = unique_temp_path(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    *why = "cannot open temp file " + tmp;
    return false;
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    *why = "short write to " + tmp;
    return false;
  }
  return rename_into_place(tmp, path, why);
}

}  // namespace

std::vector<std::uint8_t> begin_checked_file(const std::uint8_t (&magic)[8],
                                             std::uint32_t version,
                                             std::size_t capacity_bytes) {
  std::vector<std::uint8_t> buf(std::begin(magic), std::end(magic));
  buf.reserve(kCheckedHeaderBytes + capacity_bytes + kCheckedFooterBytes);
  append_le<std::uint32_t>(buf, version);
  append_le<std::uint64_t>(buf, 0);  // record count, patched on write
  return buf;
}

bool write_checked_file(const std::string& path,
                        std::vector<std::uint8_t>& buf, std::uint64_t count,
                        std::string* why) {
  store_le<std::uint64_t>(buf.data() + 12, count);
  append_le<std::uint64_t>(buf, snapshot_checksum(buf.data(), buf.size()));
  return write_file_atomic(path, buf, why);
}

std::optional<std::uint64_t> read_checked_file(
    const std::string& path, const std::uint8_t (&magic)[8],
    std::uint32_t version, std::size_t record_bytes,
    std::vector<std::uint8_t>* buf, std::string* why) {
  const auto reject = [why](std::string reason) {
    *why = std::move(reason);
    return std::nullopt;
  };
  if (!read_whole_file(path, buf)) return reject("cannot read " + path);
  const std::size_t size = buf->size();
  if (size < kCheckedHeaderBytes + kCheckedFooterBytes) {
    return reject("file shorter than header");
  }
  const std::uint8_t* const p = buf->data();
  if (!std::equal(std::begin(magic), std::end(magic), p)) {
    return reject("bad magic");
  }
  const auto found = load_le<std::uint32_t>(p + 8);
  if (found != version) {
    return reject("unsupported version " + std::to_string(found));
  }
  const auto count = load_le<std::uint64_t>(p + 12);
  // Validate by division, not by multiplying count out: a crafted count of
  // (size - 28) * record_bytes^-1 mod 2^64 would wrap `count *
  // record_bytes` back to the real file size and then explode the
  // caller's per-record allocation.
  const std::size_t body = size - kCheckedHeaderBytes - kCheckedFooterBytes;
  if (body % record_bytes != 0 || count != body / record_bytes) {
    return reject("truncated: " + std::to_string(size) + " bytes for " +
                  std::to_string(count) + " records");
  }
  if (load_le<std::uint64_t>(p + size - kCheckedFooterBytes) !=
      snapshot_checksum(p, size - kCheckedFooterBytes)) {
    return reject("checksum mismatch");
  }
  return count;
}

}  // namespace dmm::core
