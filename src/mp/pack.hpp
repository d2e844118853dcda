// pdceval -- payload (de)serialisation helpers.
//
// Applications move real data through the simulated tools; these helpers
// convert typed vectors and scalar streams to/from byte payloads. Native
// byte order (the simulation runs in one address space; XDR costs are
// billed in simulated time by the PVM profile, not performed).
//
// Two read paths exist. The owning one (`unpack_vector`,
// `PayloadReader::get_vector`) materialises fresh vectors; the zero-copy one
// (`payload_span`, `PayloadReader::get_span`) borrows typed spans straight
// from the immutable payload bytes, so the simulator's hot loops
// (collectives, app exchanges) never heap-allocate just to look at received
// data. Borrowed spans are valid as long as the payload/Message they came
// from is alive.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "mp/message.hpp"

namespace pdc::mp {

template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] Payload pack_vector(std::span<const T> v) {
  Bytes b = BufferPool::local().acquire(v.size() * sizeof(T));
  if (!v.empty()) std::memcpy(b.data(), v.data(), b.size());
  return make_payload(std::move(b));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] Payload pack_vector(const std::vector<T>& v) {
  return pack_vector(std::span<const T>(v));
}

/// Borrow the payload bytes as a typed span -- the zero-copy counterpart of
/// unpack_vector. Vector storage is new-aligned, so the front of a payload
/// is aligned for any packable T; misalignment can only arise for views at
/// an offset (see PayloadReader::get_span) and is checked there.
template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] std::span<const T> payload_span(const Bytes& b) {
  if (b.size() % sizeof(T) != 0) {
    throw std::invalid_argument("payload_span: payload size not a multiple of element size");
  }
  if (b.empty()) return {};
  return {reinterpret_cast<const T*>(b.data()), b.size() / sizeof(T)};
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] std::vector<T> unpack_vector(const Bytes& b) {
  const auto s = payload_span<T>(b);
  return std::vector<T>(s.begin(), s.end());
}

/// Sequential writer for mixed-type headers + data. The buffer comes from
/// the thread-local BufferPool (via reserve/finish), so a sized-up Packer
/// never touches the allocator on the hot path.
class Packer {
 public:
  /// Pool-backed capacity: grab a recycled buffer big enough for `bytes`
  /// so subsequent put/put_span calls append without reallocating.
  Packer& reserve(std::size_t bytes) {
    if (bytes > buf_.capacity()) {
      Bytes grown = BufferPool::local().acquire(bytes);
      grown.resize(buf_.size());
      if (!buf_.empty()) std::memcpy(grown.data(), buf_.data(), buf_.size());
      BufferPool::local().release(std::move(buf_));
      buf_ = std::move(grown);
    }
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Packer& put(const T& value) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    std::memcpy(buf_.data() + at, &value, sizeof(T));
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Packer& put_span(std::span<const T> v) {
    put<std::uint64_t>(v.size());
    if (!v.empty()) {  // empty spans may have data() == nullptr: no arithmetic on it
      const std::size_t at = buf_.size();
      const std::size_t n = v.size() * sizeof(T);
      buf_.resize(at + n);
      std::memcpy(buf_.data() + at, v.data(), n);
    }
    return *this;
  }

  [[nodiscard]] Payload finish() { return make_payload(std::move(buf_)); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  Bytes buf_;
};

namespace detail {

/// Overflow-hardened bounds check for PayloadReader: with
/// pos <= size as the invariant, `n > size - pos` cannot wrap, unlike the
/// naive `pos + n > size`.
inline void require_bytes(std::size_t pos, std::size_t size, std::size_t n) {
  if (n > size - pos) throw std::out_of_range("payload reader: truncated payload");
}

/// Element count `n` of size `elem` fits in the remaining bytes -- checked
/// by division so `n * elem` cannot overflow for a corrupted length prefix.
inline void require_elems(std::size_t pos, std::size_t size, std::uint64_t n,
                          std::size_t elem) {
  if (n > (size - pos) / elem) {
    throw std::out_of_range("payload reader: length prefix exceeds payload");
  }
}

}  // namespace detail

/// Zero-copy sequential reader matching Packer's layout: `get_span` borrows
/// typed views straight out of the payload instead of materialising
/// vectors. Construct from a Payload (shares ownership -- spans outlive the
/// Message) or from a `const Bytes&` the caller keeps alive.
class PayloadReader {
 public:
  explicit PayloadReader(const Bytes& b) : buf_(&b) {}
  explicit PayloadReader(Payload p)
      : owner_(p ? std::move(p) : empty_payload()), buf_(owner_.get()) {}
  explicit PayloadReader(const Message& m) : PayloadReader(m.data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T get() {
    T value;
    detail::require_bytes(pos_, buf_->size(), sizeof(T));
    std::memcpy(&value, buf_->data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Borrow the next length-prefixed array without copying. Throws if the
  /// element data is misaligned for T (a layout bug: put header fields in
  /// multiples of alignof(T) before a put_span of T).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] std::span<const T> get_span() {
    const auto n = get<std::uint64_t>();
    detail::require_elems(pos_, buf_->size(), n, sizeof(T));
    if (n == 0) return {};
    const std::byte* p = buf_->data() + pos_;
    if (reinterpret_cast<std::uintptr_t>(p) % alignof(T) != 0) {
      throw std::runtime_error("PayloadReader::get_span: misaligned element data");
    }
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return {reinterpret_cast<const T*>(p), static_cast<std::size_t>(n)};
  }

  /// Owning fallback for callers that need storage (e.g. building an
  /// Image); layout-compatible with get_span.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] std::vector<T> get_vector() {
    const auto n = get<std::uint64_t>();
    detail::require_elems(pos_, buf_->size(), n, sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n > 0) std::memcpy(v.data(), buf_->data() + pos_, n * sizeof(T));
    pos_ += static_cast<std::size_t>(n) * sizeof(T);
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return buf_->size() - pos_; }

 private:
  Payload owner_;  ///< null when constructed over borrowed Bytes
  const Bytes* buf_;
  std::size_t pos_{0};
};

}  // namespace pdc::mp
