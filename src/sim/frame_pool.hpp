// pdceval -- thread-local freelist for coroutine frames.
//
// Every `co_await comm.send(...)` style call creates a short-lived coroutine
// whose frame the compiler allocates with the promise's `operator new`. In a
// tool-evaluation run those frames dominate the allocation profile (a single
// 16-node global sum spins up several hundred of them), and they recur in a
// small set of sizes -- one per coroutine function. Recycling them through a
// size-class freelist removes the malloc/free pair from the steady state the
// same way `mp::BufferPool` does for payload bytes.
//
// The pool is thread-local so the parallel sweep runner needs no locking;
// frames never migrate threads (a simulation runs start-to-finish on one
// worker). Blocks above the largest class fall through to the global heap.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pdc::sim {

class FramePool {
 public:
  struct Stats {
    std::uint64_t hits{0};        ///< allocations served from the freelist
    std::uint64_t misses{0};      ///< allocations that hit the heap
    std::uint64_t releases{0};    ///< frames returned to the freelist
    std::uint64_t discards{0};    ///< frames freed because a class was full
    std::uint64_t bytes_recycled{0};  ///< bytes served without touching malloc

    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// The calling thread's pool (constructed on first use).
  static FramePool& local();

  /// Allocate a block of at least `n` bytes (rounded up to its size class).
  [[nodiscard]] void* allocate(std::size_t n);
  /// Return a block previously obtained from `allocate` with the same `n`.
  void deallocate(void* p, std::size_t n) noexcept;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

  /// Free every cached block back to the heap.
  void trim() noexcept;
  [[nodiscard]] std::size_t cached_blocks() const noexcept;

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

 private:
  FramePool() = default;
  ~FramePool();

  // Power-of-two classes from 64 B to 16 KiB; coroutine frames in this
  // codebase measure well inside that range.
  static constexpr std::size_t kMinClassLog2 = 6;
  static constexpr std::size_t kMaxClassLog2 = 14;
  static constexpr std::size_t kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;
  static constexpr std::size_t kMaxPerClass = 128;

  struct FreeNode {
    FreeNode* next;
  };

  [[nodiscard]] static std::size_t class_index(std::size_t n) noexcept;
  [[nodiscard]] static std::size_t class_size(std::size_t ci) noexcept {
    return std::size_t{1} << (ci + kMinClassLog2);
  }

  FreeNode* free_[kNumClasses]{};
  std::size_t count_[kNumClasses]{};
  Stats stats_{};
};

}  // namespace pdc::sim
