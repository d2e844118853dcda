#include "evald/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "evald/checksum.hpp"

namespace pdc::evald {

namespace {

void put_u32(std::vector<std::byte>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::byte>(v >> (8 * i)));
}
void put_u64(std::vector<std::byte>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::byte>(v >> (8 * i)));
}
void put_bytes(std::vector<std::byte>& buf, std::span<const std::byte> bytes) {
  put_u32(buf, static_cast<std::uint32_t>(bytes.size()));
  buf.insert(buf.end(), bytes.begin(), bytes.end());
}

// Cursor over a received payload; fails sticky on overrun.
struct Cursor {
  std::span<const std::byte> bytes;
  std::size_t pos{0};
  bool fail{false};

  std::uint8_t u8() {
    if (pos >= bytes.size()) {
      fail = true;
      return 0;
    }
    return static_cast<std::uint8_t>(bytes[pos++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::span<const std::byte> blob() {
    const std::uint32_t n = u32();
    if (fail || bytes.size() - pos < n) {
      fail = true;
      return {};
    }
    const auto out = bytes.subspan(pos, n);
    pos += n;
    return out;
  }
  [[nodiscard]] bool done() const { return !fail && pos == bytes.size(); }
};

bool write_all(int fd, const std::byte* data, std::size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not a process kill.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `len` bytes; 1 = ok, 0 = clean EOF before any byte,
/// -1 = EOF/error mid-read.
int read_all(int fd, std::byte* data, std::size_t len) {
  bool any = false;
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return any ? -1 : 0;
    any = true;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return 1;
}

}  // namespace

const char* to_string(FrameStatus s) {
  switch (s) {
    case FrameStatus::Ok: return "ok";
    case FrameStatus::Eof: return "eof";
    case FrameStatus::Truncated: return "truncated frame";
    case FrameStatus::TooLong: return "length prefix too long";
    case FrameStatus::BadCrc: return "crc mismatch";
    case FrameStatus::IoError: return "io error";
  }
  return "?";
}

bool write_frame(int fd, std::span<const std::byte> payload) {
  // Enforce the cap on the writing side too: a frame the reader would
  // reject (or, above 4 GiB, one whose length prefix would silently
  // truncate) must never reach the wire.
  if (payload.size() > kMaxFramePayload) return false;
  std::vector<std::byte> buf;
  buf.reserve(payload.size() + 8);
  put_u32(buf, static_cast<std::uint32_t>(payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());
  put_u32(buf, crc32(payload));
  return write_all(fd, buf.data(), buf.size());
}

FrameStatus read_frame(int fd, std::vector<std::byte>& payload) {
  std::byte prefix[4];
  const int head = read_all(fd, prefix, 4);
  if (head == 0) return FrameStatus::Eof;
  if (head < 0) return FrameStatus::Truncated;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  if (len > kMaxFramePayload) return FrameStatus::TooLong;

  payload.assign(len, std::byte{0});
  if (len > 0 && read_all(fd, payload.data(), len) != 1) return FrameStatus::Truncated;
  std::byte trailer[4];
  if (read_all(fd, trailer, 4) != 1) return FrameStatus::Truncated;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(trailer[i]) << (8 * i);
  if (crc != crc32({payload.data(), payload.size()})) return FrameStatus::BadCrc;
  return FrameStatus::Ok;
}

std::vector<std::byte> encode_ping() {
  return {static_cast<std::byte>(MsgType::Ping)};
}
std::vector<std::byte> encode_pong() {
  return {static_cast<std::byte>(MsgType::Pong)};
}

std::vector<std::byte> encode_lookup(const LookupRequest& req) {
  std::vector<std::byte> buf;
  buf.push_back(static_cast<std::byte>(MsgType::Lookup));
  buf.push_back(static_cast<std::byte>(req.warm ? 1 : 0));
  put_u32(buf, static_cast<std::uint32_t>(req.specs.size()));
  for (const eval::CellSpec& spec : req.specs) put_bytes(buf, eval::encode_spec(spec));
  return buf;
}

std::optional<LookupRequest> decode_lookup(std::span<const std::byte> payload) {
  Cursor c{payload};
  if (c.u8() != static_cast<std::uint8_t>(MsgType::Lookup)) return std::nullopt;
  LookupRequest req;
  req.warm = c.u8() != 0;
  const std::uint32_t count = c.u32();
  if (c.fail || count > (1u << 20)) return std::nullopt;
  req.specs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto blob = c.blob();
    if (c.fail) return std::nullopt;
    auto spec = eval::decode_spec(blob);
    if (!spec) return std::nullopt;
    req.specs.push_back(std::move(*spec));
  }
  if (!c.done()) return std::nullopt;
  return req;
}

std::vector<std::byte> encode_lookup_reply(const LookupReply& reply) {
  std::vector<std::byte> buf;
  buf.push_back(static_cast<std::byte>(MsgType::LookupReply));
  put_u32(buf, static_cast<std::uint32_t>(reply.items.size()));
  for (const LookupReply::Item& item : reply.items) {
    buf.push_back(static_cast<std::byte>(item.origin));
    put_bytes(buf, item.result);
  }
  return buf;
}

std::optional<LookupReply> decode_lookup_reply(std::span<const std::byte> payload) {
  Cursor c{payload};
  if (c.u8() != static_cast<std::uint8_t>(MsgType::LookupReply)) return std::nullopt;
  LookupReply reply;
  const std::uint32_t count = c.u32();
  if (c.fail || count > (1u << 20)) return std::nullopt;
  reply.items.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    LookupReply::Item item;
    const std::uint8_t origin = c.u8();
    if (origin > 2) return std::nullopt;
    item.origin = static_cast<Origin>(origin);
    const auto blob = c.blob();
    if (c.fail) return std::nullopt;
    item.result.assign(blob.begin(), blob.end());
    reply.items.push_back(std::move(item));
  }
  if (!c.done()) return std::nullopt;
  return reply;
}

std::vector<std::byte> encode_stats_request() {
  return {static_cast<std::byte>(MsgType::Stats)};
}

std::vector<std::byte> encode_stats_reply(const DaemonStats& stats) {
  std::vector<std::byte> buf;
  buf.push_back(static_cast<std::byte>(MsgType::StatsReply));
  put_u64(buf, stats.entries);
  put_u64(buf, stats.negative_entries);
  put_u64(buf, stats.hits);
  put_u64(buf, stats.negative_hits);
  put_u64(buf, stats.misses);
  put_u64(buf, stats.inserts);
  put_u64(buf, stats.invalidated);
  put_u64(buf, stats.log_bytes);
  put_u64(buf, stats.recovered);
  put_u64(buf, stats.requests);
  put_u64(buf, stats.cells_served);
  put_u64(buf, stats.cells_computed);
  put_u64(buf, stats.connections);
  put_u64(buf, stats.frame_errors);
  put_u64(buf, stats.model_version);
  return buf;
}

std::optional<DaemonStats> decode_stats_reply(std::span<const std::byte> payload) {
  Cursor c{payload};
  if (c.u8() != static_cast<std::uint8_t>(MsgType::StatsReply)) return std::nullopt;
  DaemonStats s;
  s.entries = c.u64();
  s.negative_entries = c.u64();
  s.hits = c.u64();
  s.negative_hits = c.u64();
  s.misses = c.u64();
  s.inserts = c.u64();
  s.invalidated = c.u64();
  s.log_bytes = c.u64();
  s.recovered = c.u64();
  s.requests = c.u64();
  s.cells_served = c.u64();
  s.cells_computed = c.u64();
  s.connections = c.u64();
  s.frame_errors = c.u64();
  s.model_version = c.u64();
  if (!c.done()) return std::nullopt;
  return s;
}

std::vector<std::byte> encode_invalidate(const InvalidateRequest& req) {
  std::vector<std::byte> buf;
  buf.push_back(static_cast<std::byte>(MsgType::Invalidate));
  buf.push_back(static_cast<std::byte>(req.all ? 1 : 0));
  if (!req.all) put_bytes(buf, eval::encode_spec(req.spec));
  return buf;
}

std::optional<InvalidateRequest> decode_invalidate(std::span<const std::byte> payload) {
  Cursor c{payload};
  if (c.u8() != static_cast<std::uint8_t>(MsgType::Invalidate)) return std::nullopt;
  InvalidateRequest req;
  req.all = c.u8() != 0;
  if (!req.all) {
    const auto blob = c.blob();
    if (c.fail) return std::nullopt;
    auto spec = eval::decode_spec(blob);
    if (!spec) return std::nullopt;
    req.spec = std::move(*spec);
  }
  if (!c.done()) return std::nullopt;
  return req;
}

std::vector<std::byte> encode_invalidate_reply(std::uint64_t removed) {
  std::vector<std::byte> buf;
  buf.push_back(static_cast<std::byte>(MsgType::InvalidateReply));
  put_u64(buf, removed);
  return buf;
}

std::optional<std::uint64_t> decode_invalidate_reply(std::span<const std::byte> payload) {
  Cursor c{payload};
  if (c.u8() != static_cast<std::uint8_t>(MsgType::InvalidateReply)) return std::nullopt;
  const std::uint64_t removed = c.u64();
  if (!c.done()) return std::nullopt;
  return removed;
}

std::vector<std::byte> encode_error(const std::string& text) {
  std::vector<std::byte> buf;
  buf.push_back(static_cast<std::byte>(MsgType::Error));
  put_u32(buf, static_cast<std::uint32_t>(text.size()));
  for (char ch : text) buf.push_back(static_cast<std::byte>(ch));
  return buf;
}

std::optional<std::string> decode_error(std::span<const std::byte> payload) {
  Cursor c{payload};
  if (c.u8() != static_cast<std::uint8_t>(MsgType::Error)) return std::nullopt;
  const auto blob = c.blob();
  if (c.fail || !c.done()) return std::nullopt;
  std::string text(blob.size(), '\0');
  if (!blob.empty()) std::memcpy(text.data(), blob.data(), blob.size());
  return text;
}

std::optional<MsgType> peek_type(std::span<const std::byte> payload) {
  if (payload.empty()) return std::nullopt;
  const auto t = static_cast<std::uint8_t>(payload[0]);
  if (t < 1 || t > 9) return std::nullopt;
  return static_cast<MsgType>(t);
}

}  // namespace pdc::evald
