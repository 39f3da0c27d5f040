#include "core/checksum.hh"

#include <array>

namespace szp {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic byte-wise table; entry i of
// kTables[k] is the CRC of byte i followed by k zero bytes, so eight table
// lookups advance the state over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 32-bit load (one mov on x86).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
            kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xffu] ^
            kTables[2][(hi >> 8) & 0xffu] ^ kTables[1][(hi >> 16) & 0xffu] ^
            kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) state = kTables[0][(state ^ *p) & 0xffu] ^ (state >> 8);
  return state;
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  return crc32_final(crc32_update(crc32_init(), bytes));
}

}  // namespace szp
