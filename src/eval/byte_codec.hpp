// pdceval -- the one little-endian byte codec.
//
// Every byte string the evaluation service hashes, sends or persists is
// written by ByteWriter and read back by ByteReader: the canonical cell
// codec (eval/cell.cpp), the evald messages (evald/protocol.cpp) and the
// store log (evald/store.cpp). Integers are fixed-width little-endian;
// doubles travel as their IEEE-754 bit pattern, so decode-then-encode is
// the identity even for NaNs and the bytes are host-independent.
//
// The two classes answer the same field calls -- the writer takes values,
// the reader references -- so each record's layout is written once, as a
// field list both directions call:
//
//   constexpr auto transport_fields = [](auto& io, auto& t) {
//     io.i64(t.retransmits);
//     ...
//   };
//   encode_with(stats, transport_fields);
//   decode_with<mp::TransportStats>(bytes, transport_fields);
//
// The reader fails sticky and checks bounds once per field: a short field,
// an enum byte outside its range, a bool byte other than 0 or 1, a count
// above its cap or a nested record its own decoder rejects marks it
// failed; every later read yields zero without advancing, and the caller
// checks once at the end (`done()`: no failure and no trailing bytes).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pdc::eval {

class ByteWriter {
 public:
  explicit ByteWriter(std::size_t capacity = 64) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { put(static_cast<std::uint8_t>(v)); }
  /// One byte; [first, last] is the range the reader accepts.
  template <class E>
  void enumeration(E v, E /*first*/, E /*last*/) {
    put(static_cast<std::uint8_t>(v));
  }
  /// A fixed leading byte (a message type) the reader insists on.
  template <class E>
  void tag(E v) {
    put(static_cast<std::uint8_t>(v));
  }
  /// Bytes whose length an earlier field carries.
  void raw(std::span<const std::byte> b, std::uint32_t /*length*/) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  /// u32 length, then the bytes.
  void blob(std::span<const std::byte> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void str(std::string_view s) { blob(std::as_bytes(std::span(s.data(), s.size()))); }
  /// u32 count (at most `cap` for the reader), then each element's fields.
  template <class T, class Fields>
  void list(const std::vector<T>& v, std::uint32_t /*cap*/, Fields&& fields) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) fields(*this, e);
  }
  /// A record with its own codec, carried as a blob.
  template <class T, class Encode, class Decode>
  void nested(const T& v, Encode&& encode, Decode&& /*decode*/) {
    blob(encode(v));
  }

  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

 private:
  template <class U>
  void put(U v) {
    std::byte b[sizeof(U)];
    for (std::size_t i = 0; i < sizeof(U); ++i) b[i] = static_cast<std::byte>(v >> (8 * i));
    buf_.insert(buf_.end(), b, b + sizeof(U));
  }

  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> in) : in_(in) {}

  void u8(std::uint8_t& v) { v = get<std::uint8_t>(); }
  void u32(std::uint32_t& v) { v = get<std::uint32_t>(); }
  void u64(std::uint64_t& v) { v = get<std::uint64_t>(); }
  void i32(std::int32_t& v) { v = static_cast<std::int32_t>(get<std::uint32_t>()); }
  void i64(std::int64_t& v) { v = static_cast<std::int64_t>(get<std::uint64_t>()); }
  void f64(double& v) { v = std::bit_cast<double>(get<std::uint64_t>()); }
  void boolean(bool& v) {
    const std::uint8_t b = get<std::uint8_t>();
    if (b > 1) fail_ = true;
    v = b == 1;
  }
  template <class E>
  void enumeration(E& v, E first, E last) {
    const std::uint8_t b = get<std::uint8_t>();
    if (b < static_cast<std::uint8_t>(first) || b > static_cast<std::uint8_t>(last)) {
      fail_ = true;
      return;
    }
    v = static_cast<E>(b);
  }
  template <class E>
  void tag(E v) {
    if (get<std::uint8_t>() != static_cast<std::uint8_t>(v)) fail_ = true;
  }
  /// A view of the next `length` bytes (empty once failed).
  void raw(std::span<const std::byte>& v, std::uint32_t length) {
    const std::byte* p = take(length);
    v = p != nullptr ? std::span<const std::byte>(p, length) : std::span<const std::byte>{};
  }
  void blob(std::vector<std::byte>& v) {
    const auto b = sized();
    v.assign(b.begin(), b.end());
  }
  void str(std::string& s) {
    const auto b = sized();
    const auto* p = reinterpret_cast<const char*>(b.data());
    s.assign(p, p + b.size());
  }
  template <class T, class Fields>
  void list(std::vector<T>& v, std::uint32_t cap, Fields&& fields) {
    const std::uint32_t n = get<std::uint32_t>();
    if (n > cap) fail_ = true;
    v.clear();
    // No reserve: a forged count may promise far more than the bytes hold.
    for (std::uint32_t i = 0; i < n && !fail_; ++i) fields(*this, v.emplace_back());
  }
  template <class T, class Encode, class Decode>
  void nested(T& v, Encode&& /*encode*/, Decode&& decode) {
    const auto b = sized();
    if (fail_) return;
    auto decoded = decode(b);
    if (decoded) {
      v = std::move(*decoded);
    } else {
      fail_ = true;
    }
  }

  [[nodiscard]] bool failed() const noexcept { return fail_; }
  [[nodiscard]] bool done() const noexcept { return !fail_ && pos_ == in_.size(); }

 private:
  const std::byte* take(std::size_t n) {
    if (fail_ || in_.size() - pos_ < n) {
      fail_ = true;
      return nullptr;
    }
    const std::byte* p = in_.data() + pos_;
    pos_ += n;
    return p;
  }
  template <class U>
  U get() {
    const std::byte* p = take(sizeof(U));
    if (p == nullptr) return 0;
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(std::to_integer<U>(p[i]) << (8 * i));
    }
    return v;
  }
  /// u32 length, then a view of that many bytes.
  std::span<const std::byte> sized() {
    std::span<const std::byte> b;
    raw(b, get<std::uint32_t>());
    return b;
  }

  std::span<const std::byte> in_;
  std::size_t pos_{0};
  bool fail_{false};
};

/// Write `value` through its field list.
template <class T, class Fields>
[[nodiscard]] std::vector<std::byte> encode_with(const T& value, Fields&& fields) {
  ByteWriter w;
  fields(w, value);
  return w.take();
}

/// Read a `T` through its field list; nullopt unless the fields consume
/// `bytes` exactly and every check passes.
template <class T, class Fields>
[[nodiscard]] std::optional<T> decode_with(std::span<const std::byte> bytes, Fields&& fields) {
  ByteReader r(bytes);
  T value{};
  fields(r, value);
  if (!r.done()) return std::nullopt;
  return value;
}

}  // namespace pdc::eval
