#include "dmm/serve/frame.h"

#include <cassert>
#include <cstring>

#include "dmm/core/checked_file.h"

namespace dmm::serve {

using core::load_le;
using core::store_le;

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       const std::string& payload) {
  assert(payload.size() <= kMaxFramePayload &&
         "frame payload exceeds kMaxFramePayload");
  std::vector<std::uint8_t> buf(kFrameHeaderBytes + payload.size() +
                                kFrameChecksumBytes);
  std::memcpy(buf.data(), kFrameMagic, sizeof(kFrameMagic));
  store_le<std::uint32_t>(buf.data() + 4, kFrameVersion);
  store_le<std::uint32_t>(buf.data() + 8, static_cast<std::uint32_t>(type));
  store_le<std::uint32_t>(buf.data() + 12,
                          static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(buf.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  const std::size_t body = kFrameHeaderBytes + payload.size();
  store_le<std::uint64_t>(buf.data() + body,
                          core::snapshot_checksum(buf.data(), body));
  return buf;
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return;  // the stream is already condemned
  buf_.insert(buf_.end(), data, data + n);
}

FrameReader::Status FrameReader::next(Frame* out, std::string* why) {
  if (poisoned_) {
    *why = poison_reason_;
    return Status::kError;
  }
  if (buf_.size() < kFrameHeaderBytes) return Status::kNeedMore;
  // Validate the header before trusting the length field: a garbage
  // stream must fail here, not make us wait for bytes that never come.
  const auto poison = [&](const std::string& reason) {
    poisoned_ = true;
    poison_reason_ = reason;
    *why = reason;
    return Status::kError;
  };
  if (std::memcmp(buf_.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return poison("bad frame magic");
  }
  const std::uint32_t version = load_le<std::uint32_t>(buf_.data() + 4);
  if (version != kFrameVersion) {
    return poison("unsupported frame version " + std::to_string(version));
  }
  const std::uint32_t type = load_le<std::uint32_t>(buf_.data() + 8);
  const std::uint32_t length = load_le<std::uint32_t>(buf_.data() + 12);
  if (length > kMaxFramePayload) {
    return poison("oversized frame: " + std::to_string(length) +
                  " payload bytes");
  }
  const std::size_t total =
      kFrameHeaderBytes + length + kFrameChecksumBytes;
  if (buf_.size() < total) return Status::kNeedMore;
  const std::uint64_t stored =
      load_le<std::uint64_t>(buf_.data() + kFrameHeaderBytes + length);
  if (core::snapshot_checksum(buf_.data(), kFrameHeaderBytes + length) !=
      stored) {
    return poison("frame checksum mismatch");
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(
      reinterpret_cast<const char*>(buf_.data() + kFrameHeaderBytes), length);
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(total));
  return Status::kFrame;
}

}  // namespace dmm::serve
