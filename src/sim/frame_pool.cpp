#include "sim/frame_pool.hpp"

#include <bit>
#include <new>

namespace pdc::sim {

FramePool& FramePool::local() {
  thread_local FramePool pool;
  return pool;
}

FramePool::~FramePool() { trim(); }

std::size_t FramePool::class_index(std::size_t n) noexcept {
  if (n <= (std::size_t{1} << kMinClassLog2)) return 0;
  return static_cast<std::size_t>(std::bit_width(n - 1)) - kMinClassLog2;
}

void* FramePool::allocate(std::size_t n) {
  const std::size_t ci = class_index(n);
  if (ci >= kNumClasses) {
    ++stats_.misses;
    return ::operator new(n);
  }
  if (FreeNode* node = free_[ci]; node != nullptr) {
    free_[ci] = node->next;
    --count_[ci];
    ++stats_.hits;
    stats_.bytes_recycled += class_size(ci);
    return node;
  }
  ++stats_.misses;
  return ::operator new(class_size(ci));
}

void FramePool::deallocate(void* p, std::size_t n) noexcept {
  if (p == nullptr) return;
  const std::size_t ci = class_index(n);
  if (ci >= kNumClasses || count_[ci] >= kMaxPerClass) {
    ++stats_.discards;
    ::operator delete(p);
    return;
  }
  auto* node = static_cast<FreeNode*>(p);
  node->next = free_[ci];
  free_[ci] = node;
  ++count_[ci];
  ++stats_.releases;
}

void FramePool::trim() noexcept {
  for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
    FreeNode* node = free_[ci];
    while (node != nullptr) {
      FreeNode* next = node->next;
      ::operator delete(node);
      node = next;
    }
    free_[ci] = nullptr;
    count_[ci] = 0;
  }
}

std::size_t FramePool::cached_blocks() const noexcept {
  std::size_t total = 0;
  for (std::size_t ci = 0; ci < kNumClasses; ++ci) total += count_[ci];
  return total;
}

}  // namespace pdc::sim
