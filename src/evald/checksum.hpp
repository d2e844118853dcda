// pdceval -- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) and the one
// frame built on it,
//
//   u32 payload_len (LE) | payload bytes | u32 crc32(payload) (LE)
//
// around every byte string the evaluation service reads back: socket
// messages (protocol.cpp) and store-log records (store.cpp), where a
// mismatch means a flipped bit or a torn write. Each caller keeps its own
// length cap.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "eval/byte_codec.hpp"

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

/// Bytes a frame adds around its payload: the length prefix and the CRC.
inline constexpr std::size_t kFrameOverhead = 8;

/// `payload` framed.
[[nodiscard]] inline std::vector<std::byte> frame(std::span<const std::byte> payload) {
  eval::ByteWriter w(payload.size() + kFrameOverhead);
  w.blob(payload);
  w.u32(crc32(payload));
  return w.take();
}

/// The payload of the frame at the start of `bytes` (which may run on past
/// it); nullopt when that frame is incomplete, its length exceeds `cap` or
/// its CRC does not match.
[[nodiscard]] inline std::optional<std::span<const std::byte>> unframe(
    std::span<const std::byte> bytes, std::uint32_t cap) {
  eval::ByteReader r(bytes);
  std::uint32_t len = 0;
  r.u32(len);
  if (len > cap) return std::nullopt;
  std::span<const std::byte> payload;
  r.raw(payload, len);
  std::uint32_t crc = 0;
  r.u32(crc);
  if (r.failed() || crc != crc32(payload)) return std::nullopt;
  return payload;
}

}  // namespace pdc::evald
