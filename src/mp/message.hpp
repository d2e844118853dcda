// pdceval -- messages carried by the simulated tools.
//
// Payloads are real bytes: applications serialise actual data, the runtime
// moves it between rank address spaces, and tests verify distributed
// results bit-for-bit against serial references. Payloads are shared
// (immutable) so a broadcast does not physically clone the buffer P times
// in host memory -- the *simulated* copy costs are billed by the tools.
//
// Payload storage is recycled through the thread-local BufferPool: the
// shared_ptr's owner is a PooledBytes node whose destructor hands the byte
// storage back to the pool, and the node itself (control block + Bytes
// header, fused by allocate_shared) is recycled through the pool's node
// free list. In steady state a pack -> send -> recv -> drop cycle touches
// the allocator zero times. None of this changes simulated time -- only
// host-side allocation behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mp/buffer_pool.hpp"

namespace pdc::mp {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

using Payload = std::shared_ptr<const Bytes>;

namespace detail {

/// Owner object for pooled payloads: releases its storage back to the
/// destroying thread's pool instead of freeing it.
struct PooledBytes {
  Bytes bytes;
  explicit PooledBytes(Bytes b) noexcept : bytes(std::move(b)) {}
  ~PooledBytes() { BufferPool::local().release(std::move(bytes)); }
};

/// Stateless allocator routing allocate_shared's single fused node
/// (control block + PooledBytes) through the current thread's pool.
template <typename T>
struct NodeAllocator {
  using value_type = T;
  NodeAllocator() noexcept = default;
  template <typename U>
  NodeAllocator(const NodeAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(BufferPool::local().allocate_node(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    BufferPool::local().deallocate_node(p, n * sizeof(T));
  }
  friend bool operator==(const NodeAllocator&, const NodeAllocator&) noexcept { return true; }
};

}  // namespace detail

/// Wrap `bytes` as an immutable shared payload. The storage (and the
/// shared_ptr node) come back through the thread-local BufferPool when the
/// last reference drops, so acquiring `bytes` via BufferPool::acquire (as
/// pack_vector and Packer do) makes the whole payload cycle allocation-free
/// in steady state.
[[nodiscard]] inline Payload make_payload(Bytes bytes) {
  auto owner = std::allocate_shared<detail::PooledBytes>(
      detail::NodeAllocator<detail::PooledBytes>{}, std::move(bytes));
  const Bytes* view = &owner->bytes;
  return Payload(std::move(owner), view);  // aliasing: share the node, expose the bytes
}

[[nodiscard]] inline Payload empty_payload() {
  // Deliberately *not* pooled: this payload outlives every thread-local
  // pool (static storage duration).
  static const Payload kEmpty = std::make_shared<const Bytes>();
  return kEmpty;
}

struct Message {
  int src{kAnySource};
  int tag{kAnyTag};
  Payload data;
  /// Trace correlation id: nonzero only while a trace capture is active on
  /// the sending rank's thread (see trace/sink.hpp). Carried end-to-end so
  /// the recv-side record pairs with the matching send and wire hops.
  std::uint64_t trace_id{0};

  [[nodiscard]] std::int64_t size_bytes() const noexcept {
    return data ? static_cast<std::int64_t>(data->size()) : 0;
  }
  [[nodiscard]] bool matches(int want_src, int want_tag) const noexcept {
    return (want_src == kAnySource || want_src == src) &&
           (want_tag == kAnyTag || want_tag == tag);
  }
};

}  // namespace pdc::mp
