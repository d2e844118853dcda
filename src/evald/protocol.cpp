#include "evald/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "eval/byte_codec.hpp"
#include "evald/checksum.hpp"

namespace pdc::evald {

namespace {

// -- field lists: one layout per message, called by both directions ---------

constexpr auto spec_field = [](auto& io, auto& spec) {
  io.nested(spec, eval::encode_spec, eval::decode_spec);
};

constexpr auto lookup_fields = [](auto& io, auto& req) {
  io.tag(MsgType::Lookup);
  io.boolean(req.warm);
  io.list(req.specs, 1u << 20, spec_field);
};

constexpr auto item_fields = [](auto& io, auto& item) {
  io.enumeration(item.origin, Origin::Cache, Origin::NegativeCache);
  io.blob(item.result);
};

constexpr auto lookup_reply_fields = [](auto& io, auto& reply) {
  io.tag(MsgType::LookupReply);
  io.list(reply.items, 1u << 20, item_fields);
};

constexpr auto stats_fields = [](auto& io, auto& s) {
  io.tag(MsgType::StatsReply);
  io.u64(s.entries);
  io.u64(s.negative_entries);
  io.u64(s.hits);
  io.u64(s.negative_hits);
  io.u64(s.misses);
  io.u64(s.inserts);
  io.u64(s.invalidated);
  io.u64(s.log_bytes);
  io.u64(s.recovered);
  io.u64(s.requests);
  io.u64(s.cells_served);
  io.u64(s.cells_computed);
  io.u64(s.connections);
  io.u64(s.frame_errors);
  io.u64(s.model_version);
};

constexpr auto invalidate_fields = [](auto& io, auto& req) {
  io.tag(MsgType::Invalidate);
  io.boolean(req.all);
  if (!req.all) spec_field(io, req.spec);
};

constexpr auto invalidate_reply_fields = [](auto& io, auto& removed) {
  io.tag(MsgType::InvalidateReply);
  io.u64(removed);
};

constexpr auto error_fields = [](auto& io, auto& text) {
  io.tag(MsgType::Error);
  io.str(text);
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
/// -1 = EOF/error mid-read. read(2), not recv(2), so any stream fd works.
int read_all(int fd, std::byte* data, std::size_t len) {
  bool any = false;
  while (len > 0) {
    const ssize_t n = ::read(fd, data, len);
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
  const std::vector<std::byte> buf = frame(payload);
  return write_all(fd, buf.data(), buf.size());
}

FrameStatus read_frame(int fd, std::vector<std::byte>& payload) {
  // The whole frame lands in `payload`, which then keeps only its body.
  payload.resize(4);
  const int head = read_all(fd, payload.data(), 4);
  if (head == 0) return FrameStatus::Eof;
  if (head < 0) return FrameStatus::Truncated;
  std::uint32_t len = 0;
  eval::ByteReader(payload).u32(len);
  if (len > kMaxFramePayload) return FrameStatus::TooLong;
  // Grow to the next step boundary per read, never to the declared length
  // up front: a peer that declares a large frame and then stalls or hangs
  // up costs its connection at most one step of memory.
  const std::size_t total = std::size_t{len} + kFrameOverhead;
  while (payload.size() < total) {
    const std::size_t have = payload.size();
    payload.resize(std::min(total, (have / kFrameReadStep + 1) * kFrameReadStep));
    if (read_all(fd, payload.data() + have, payload.size() - have) != 1) {
      return FrameStatus::Truncated;
    }
  }
  if (!unframe(payload, kMaxFramePayload)) return FrameStatus::BadCrc;
  payload.erase(payload.begin(), payload.begin() + 4);
  payload.resize(len);
  return FrameStatus::Ok;
}

std::vector<std::byte> encode_ping() {
  return {static_cast<std::byte>(MsgType::Ping)};
}
std::vector<std::byte> encode_pong() {
  return {static_cast<std::byte>(MsgType::Pong)};
}
std::vector<std::byte> encode_stats_request() {
  return {static_cast<std::byte>(MsgType::Stats)};
}

std::vector<std::byte> encode_lookup(const LookupRequest& req) {
  return eval::encode_with(req, lookup_fields);
}
std::optional<LookupRequest> decode_lookup(std::span<const std::byte> payload) {
  return eval::decode_with<LookupRequest>(payload, lookup_fields);
}

std::vector<std::byte> encode_lookup_reply(const LookupReply& reply) {
  return eval::encode_with(reply, lookup_reply_fields);
}
std::optional<LookupReply> decode_lookup_reply(std::span<const std::byte> payload) {
  return eval::decode_with<LookupReply>(payload, lookup_reply_fields);
}

std::vector<std::byte> encode_stats_reply(const DaemonStats& stats) {
  return eval::encode_with(stats, stats_fields);
}
std::optional<DaemonStats> decode_stats_reply(std::span<const std::byte> payload) {
  return eval::decode_with<DaemonStats>(payload, stats_fields);
}

std::vector<std::byte> encode_invalidate(const InvalidateRequest& req) {
  return eval::encode_with(req, invalidate_fields);
}
std::optional<InvalidateRequest> decode_invalidate(std::span<const std::byte> payload) {
  return eval::decode_with<InvalidateRequest>(payload, invalidate_fields);
}

std::vector<std::byte> encode_invalidate_reply(std::uint64_t removed) {
  return eval::encode_with(removed, invalidate_reply_fields);
}
std::optional<std::uint64_t> decode_invalidate_reply(std::span<const std::byte> payload) {
  return eval::decode_with<std::uint64_t>(payload, invalidate_reply_fields);
}

std::vector<std::byte> encode_error(const std::string& text) {
  return eval::encode_with(text, error_fields);
}
std::optional<std::string> decode_error(std::span<const std::byte> payload) {
  return eval::decode_with<std::string>(payload, error_fields);
}

std::optional<MsgType> peek_type(std::span<const std::byte> payload) {
  if (payload.empty()) return std::nullopt;
  const auto t = static_cast<std::uint8_t>(payload[0]);
  if (t < 1 || t > 9) return std::nullopt;
  return static_cast<MsgType>(t);
}

}  // namespace pdc::evald
