// pdceval -- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) over real
// bytes the evaluation service reads back: socket frame payloads
// (protocol.cpp) and store-log records (store.cpp), where a mismatch means
// a flipped bit or a torn write.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace pdc::evald {

namespace detail {
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}
inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();
}  // namespace detail

/// CRC32 of `data` (check value: crc32("123456789") == 0xCBF43926).
[[nodiscard]] constexpr std::uint32_t crc32(std::span<const std::byte> data) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc = detail::kCrc32Table[(crc ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace pdc::evald
