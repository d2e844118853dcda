// pdceval -- thread-local, size-class buffer pool for payload bytes.
//
// The message layer moves real data: every send packs a fresh `Bytes`
// vector and every payload dies when the last receiver drops it. Without a
// pool that is one malloc/free round trip per message *of host time* --
// pure measurement perturbation, since simulated costs are billed
// separately. The pool recycles payload storage through power-of-two size
// classes instead: `acquire` serves a cached buffer whose capacity covers
// the request, and payload destruction (see `make_payload`'s deleter
// machinery in message.hpp) hands the storage back.
//
// Thread safety by construction: the pool is strictly thread-local
// (`BufferPool::local()`), so the parallel sweep runner's workers each
// recycle through their own instance and no buffer is ever visible to two
// threads. A payload that migrates threads is simply released into the
// destroying thread's pool -- correct, just a different free list. Within
// one simulation every rank runs on one host thread, which is what makes
// the hit rate high: rank A's dropped payload serves rank B's next pack.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pdc::mp {

/// Raw payload bytes. Canonical alias (message.hpp re-exports it).
using Bytes = std::vector<std::byte>;

class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits{0};            ///< acquires served from a free list
    std::uint64_t misses{0};          ///< acquires that had to allocate
    std::uint64_t releases{0};        ///< buffers returned to a free list
    std::uint64_t discards{0};        ///< returned buffers dropped (full/tiny)
    std::uint64_t bytes_recycled{0};  ///< total capacity served from free lists

    [[nodiscard]] double hit_rate() const noexcept {
      const auto total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
    }
  };

  BufferPool() = default;
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The calling thread's pool.
  [[nodiscard]] static BufferPool& local();

  /// A buffer of exactly `n` bytes (value-initialised), with capacity
  /// rounded up to the size class so it is recyclable on release.
  [[nodiscard]] Bytes acquire(std::size_t n);

  /// Return a buffer's storage to the free list of its capacity class.
  /// Buffers below the smallest class or beyond the per-class cap are
  /// simply freed.
  void release(Bytes&& b) noexcept;

  /// Fixed-size node recycling for `make_payload`'s allocate_shared control
  /// blocks (one node = shared_ptr control block + the Bytes header).
  [[nodiscard]] void* allocate_node(std::size_t bytes);
  void deallocate_node(void* p, std::size_t bytes) noexcept;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

  /// Drop every cached buffer and node (memory hygiene between sweeps).
  void trim() noexcept;

  /// Buffers currently cached across all classes (tests/telemetry).
  [[nodiscard]] std::size_t cached_buffers() const noexcept;

 private:
  static constexpr std::size_t kMinClassLog2 = 6;   // 64 B
  static constexpr std::size_t kMaxClassLog2 = 22;  // 4 MB
  static constexpr std::size_t kClasses = kMaxClassLog2 - kMinClassLog2 + 1;
  static constexpr std::size_t kMaxPerClass = 64;
  static constexpr std::size_t kMaxNodes = 256;

  [[nodiscard]] static constexpr std::size_t class_size(std::size_t idx) noexcept {
    return std::size_t{1} << (kMinClassLog2 + idx);
  }
  /// Smallest class whose size covers `n` (may be == kClasses: oversize).
  [[nodiscard]] static std::size_t class_ceil(std::size_t n) noexcept {
    const auto w = static_cast<std::size_t>(std::bit_width(n > 0 ? n - 1 : 0));
    return w <= kMinClassLog2 ? 0 : w - kMinClassLog2;
  }
  /// Largest class whose size fits within `capacity` (callers pre-check
  /// capacity >= the smallest class size).
  [[nodiscard]] static std::size_t class_floor(std::size_t capacity) noexcept {
    return static_cast<std::size_t>(std::bit_width(capacity)) - 1 - kMinClassLog2;
  }

  std::array<std::vector<Bytes>, kClasses> free_;
  std::vector<void*> nodes_;    ///< recycled allocate_shared nodes
  std::size_t node_size_{0};    ///< the (single) node size seen so far
  Stats stats_;
};

}  // namespace pdc::mp
