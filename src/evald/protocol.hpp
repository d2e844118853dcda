// pdcevald -- length-prefixed, CRC32-framed socket protocol.
//
// Every message travels as one frame:
//
//   u32 payload_len (LE) | payload bytes | u32 crc32(payload) (LE)
//
// built and checked by evald/checksum.hpp's frame/unframe (the store log
// frames its records the same way), so a flipped bit anywhere in the
// payload is rejected. A reader that sees an oversized length prefix,
// a truncated frame or a CRC mismatch stops trusting the stream and
// closes the connection -- there is no resynchronisation, reconnecting is
// the recovery path (tests pin zero-length payloads, the maximum length
// prefix, truncation and corruption).
//
// Payload layout: u8 message type, then the type's body, written and read
// by the one byte codec (eval/byte_codec.hpp) that the cell codec uses.
// Decoders reject truncation, trailing bytes, out-of-range enums, counts
// above their caps and bool bytes other than 0 or 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "eval/cell.hpp"

namespace pdc::evald {

/// Frames above this are a protocol violation (a sweep of ~100k specs
/// still fits comfortably); the reader rejects the prefix before
/// allocating, and the writer refuses to send one. This bounds a batch in
/// BOTH directions: the lookup reply carries every result for the batch
/// in one frame, so a batch whose encoded reply would exceed the cap is
/// answered with an Error frame -- split such sweeps into smaller
/// batches (the computed cells are already cached, so a retry is cheap).
inline constexpr std::uint32_t kMaxFramePayload = 32u << 20;

/// read_frame grows its buffer by at most this many bytes per read, so the
/// memory a frame holds tracks the bytes that arrived, not its length
/// prefix. A frame that fits in one step takes one read.
inline constexpr std::size_t kFrameReadStep = 64u << 10;

enum class FrameStatus : std::uint8_t {
  Ok = 0,
  Eof,        ///< peer closed cleanly between frames
  Truncated,  ///< stream ended mid-frame
  TooLong,    ///< length prefix above kMaxFramePayload
  BadCrc,     ///< payload bytes do not match the trailer CRC
  IoError,    ///< read/write syscall failure
};
[[nodiscard]] const char* to_string(FrameStatus s);

/// Write one frame to `fd`; false on I/O failure (peer gone) or when the
/// payload exceeds kMaxFramePayload (nothing is sent).
[[nodiscard]] bool write_frame(int fd, std::span<const std::byte> payload);

/// Read one frame from `fd` into `payload` (replaced). Anything but Ok
/// means the stream is unusable and should be closed.
[[nodiscard]] FrameStatus read_frame(int fd, std::vector<std::byte>& payload);

// -- messages ---------------------------------------------------------------

enum class MsgType : std::uint8_t {
  Ping = 1,
  Pong = 2,
  Lookup = 3,        ///< client -> server: batch of cell specs
  LookupReply = 4,   ///< server -> client: per-cell origin + result bytes
  Stats = 5,
  StatsReply = 6,
  Invalidate = 7,    ///< whole store or one spec
  InvalidateReply = 8,
  Error = 9,         ///< server -> client: request-level failure text
};

/// Where a served result came from. Mixed sweeps report per cell, so a
/// client can assert cache behaviour (the CI smoke does).
enum class Origin : std::uint8_t {
  Cache = 0,        ///< positive cache hit
  Computed = 1,     ///< miss -- simulated on the daemon's worker pool
  NegativeCache = 2 ///< memoized failure served without re-simulating
};

struct LookupRequest {
  bool warm{false};  ///< execute misses but reply with origins only
  std::vector<eval::CellSpec> specs;
};

struct LookupReply {
  struct Item {
    Origin origin{Origin::Cache};
    std::vector<std::byte> result;  ///< encoded CellResult; empty when warm
  };
  std::vector<Item> items;  ///< request order
};

/// Daemon-level counters (store stats plus request accounting).
struct DaemonStats {
  std::uint64_t entries{0};
  std::uint64_t negative_entries{0};
  std::uint64_t hits{0};
  std::uint64_t negative_hits{0};
  std::uint64_t misses{0};
  std::uint64_t inserts{0};
  std::uint64_t invalidated{0};
  std::uint64_t log_bytes{0};
  std::uint64_t recovered{0};
  std::uint64_t requests{0};
  std::uint64_t cells_served{0};
  std::uint64_t cells_computed{0};
  std::uint64_t connections{0};
  std::uint64_t frame_errors{0};
  std::uint64_t model_version{0};
};

struct InvalidateRequest {
  bool all{true};
  eval::CellSpec spec{};  ///< when !all
};

// Encoders produce the full payload (type byte + body); decoders expect
// exactly that and return nullopt on any malformed input.
[[nodiscard]] std::vector<std::byte> encode_ping();
[[nodiscard]] std::vector<std::byte> encode_pong();
[[nodiscard]] std::vector<std::byte> encode_lookup(const LookupRequest& req);
[[nodiscard]] std::vector<std::byte> encode_lookup_reply(const LookupReply& reply);
[[nodiscard]] std::vector<std::byte> encode_stats_request();
[[nodiscard]] std::vector<std::byte> encode_stats_reply(const DaemonStats& stats);
[[nodiscard]] std::vector<std::byte> encode_invalidate(const InvalidateRequest& req);
[[nodiscard]] std::vector<std::byte> encode_invalidate_reply(std::uint64_t removed);
[[nodiscard]] std::vector<std::byte> encode_error(const std::string& text);

[[nodiscard]] std::optional<MsgType> peek_type(std::span<const std::byte> payload);
[[nodiscard]] std::optional<LookupRequest> decode_lookup(std::span<const std::byte> payload);
[[nodiscard]] std::optional<LookupReply> decode_lookup_reply(
    std::span<const std::byte> payload);
[[nodiscard]] std::optional<DaemonStats> decode_stats_reply(
    std::span<const std::byte> payload);
[[nodiscard]] std::optional<InvalidateRequest> decode_invalidate(
    std::span<const std::byte> payload);
[[nodiscard]] std::optional<std::uint64_t> decode_invalidate_reply(
    std::span<const std::byte> payload);
[[nodiscard]] std::optional<std::string> decode_error(std::span<const std::byte> payload);

}  // namespace pdc::evald
