#include "store/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace ssdfail::store {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slicing-by-16 (Intel's table-driven method): table[0] is the classic
// byte-at-a-time table; table[k][b] extends a byte b by k additional zero
// bytes.  Sixteen lookups consume sixteen input bytes per step, split
// into two independent 8-byte halves so the loads overlap instead of
// chaining — whole-file verification at open must stay cheap relative to
// the dataset build it guards (bench_perf_dataset BM_StageOpenColumnar).
constexpr std::array<std::array<std::uint32_t, 256>, 16> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    tables[0][i] = c;
  }
  for (std::size_t t = 1; t < 16; ++t)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[t][i] = tables[0][tables[t - 1][i] & 0xFFu] ^ (tables[t - 1][i] >> 8);
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 16> kTables = make_tables();

inline std::uint32_t step_byte(std::uint32_t c, char byte) noexcept {
  return kTables[0][(c ^ static_cast<std::uint8_t>(byte)) & 0xFFu] ^ (c >> 8);
}

}  // namespace

std::uint32_t crc32(std::uint32_t crc, std::span<const char> bytes) noexcept {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();

  // Align to 8 so the wide loops' memcpy loads are aligned on strict
  // targets; correctness does not depend on alignment.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = step_byte(c, *p++);
    --n;
  }
  // The wide loops fold the running CRC into the low word of the first
  // 64-bit load, which is the FIRST four input bytes only on little-endian;
  // other byte orders take the (correct, slower) byte loop for everything.
  if constexpr (std::endian::native == std::endian::little) {
    // 16 bytes per step: byte i of the step is extended by 15 - i zero
    // bytes, so it looks up table 15 - i.  The two 8-byte halves index
    // disjoint tables and are XOR-reduced separately, so their loads
    // overlap instead of chaining through one accumulator.
    while (n >= 16) {
      std::uint64_t lo;
      std::uint64_t hi;
      std::memcpy(&lo, p, 8);
      std::memcpy(&hi, p + 8, 8);
      lo ^= c;
      const std::uint32_t first =
          kTables[15][lo & 0xFFu] ^ kTables[14][(lo >> 8) & 0xFFu] ^
          kTables[13][(lo >> 16) & 0xFFu] ^ kTables[12][(lo >> 24) & 0xFFu] ^
          kTables[11][(lo >> 32) & 0xFFu] ^ kTables[10][(lo >> 40) & 0xFFu] ^
          kTables[9][(lo >> 48) & 0xFFu] ^ kTables[8][(lo >> 56) & 0xFFu];
      const std::uint32_t second =
          kTables[7][hi & 0xFFu] ^ kTables[6][(hi >> 8) & 0xFFu] ^
          kTables[5][(hi >> 16) & 0xFFu] ^ kTables[4][(hi >> 24) & 0xFFu] ^
          kTables[3][(hi >> 32) & 0xFFu] ^ kTables[2][(hi >> 40) & 0xFFu] ^
          kTables[1][(hi >> 48) & 0xFFu] ^ kTables[0][(hi >> 56) & 0xFFu];
      c = first ^ second;
      p += 16;
      n -= 16;
    }
    // At most one 8-byte step before the byte tail.
    if (n >= 8) {
      std::uint64_t chunk;
      std::memcpy(&chunk, p, 8);
      chunk ^= c;
      c = kTables[7][chunk & 0xFFu] ^ kTables[6][(chunk >> 8) & 0xFFu] ^
          kTables[5][(chunk >> 16) & 0xFFu] ^ kTables[4][(chunk >> 24) & 0xFFu] ^
          kTables[3][(chunk >> 32) & 0xFFu] ^ kTables[2][(chunk >> 40) & 0xFFu] ^
          kTables[1][(chunk >> 48) & 0xFFu] ^ kTables[0][(chunk >> 56) & 0xFFu];
      p += 8;
      n -= 8;
    }
  }
  while (n > 0) {
    c = step_byte(c, *p++);
    --n;
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ssdfail::store
