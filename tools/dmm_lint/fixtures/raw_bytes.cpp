// Seeded violations for the raw-bytes rule: little-endian shift loops
// written out by hand instead of going through the one byte codec.
#include <cstdint>
#include <vector>

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));  // expect: raw-bytes
  }
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (i * 8);  // expect: raw-bytes
  }
  return v;
}

// Shifting by a constant is not a byte loop.
std::uint32_t high_half(std::uint64_t v) {
  return static_cast<std::uint32_t>(v >> 32);
}
