#include "mp/buffer_pool.hpp"

#include <new>

namespace pdc::mp {

BufferPool& BufferPool::local() {
  static thread_local BufferPool pool;
  return pool;
}

BufferPool::~BufferPool() { trim(); }

Bytes BufferPool::acquire(std::size_t n) {
  if (n == 0) {
    ++stats_.misses;
    return Bytes{};
  }
  const std::size_t ci = class_ceil(n);
  if (ci < kClasses && !free_[ci].empty()) {
    Bytes b = std::move(free_[ci].back());
    free_[ci].pop_back();
    ++stats_.hits;
    stats_.bytes_recycled += b.capacity();
    b.resize(n);  // capacity >= class size >= n: never reallocates
    return b;
  }
  ++stats_.misses;
  Bytes b;
  // Round fresh capacity up to the class size so this buffer slots into a
  // free list when it comes back.
  if (ci < kClasses) b.reserve(class_size(ci));
  b.resize(n);
  return b;
}

void BufferPool::release(Bytes&& b) noexcept {
  if (b.capacity() < class_size(0)) {
    ++stats_.discards;
    return;
  }
  // Oversize capacities still serve the top class (capacity >= class size).
  const std::size_t ci = std::min(class_floor(b.capacity()), kClasses - 1);
  if (free_[ci].size() >= kMaxPerClass) {
    ++stats_.discards;
    return;
  }
  b.clear();
  try {
    free_[ci].push_back(std::move(b));
  } catch (...) {  // free-list growth failed: just let the buffer die
    ++stats_.discards;
    return;
  }
  ++stats_.releases;
}

void* BufferPool::allocate_node(std::size_t bytes) {
  if (node_size_ == 0) node_size_ = bytes;
  if (bytes == node_size_ && !nodes_.empty()) {
    void* p = nodes_.back();
    nodes_.pop_back();
    return p;
  }
  return ::operator new(bytes);
}

void BufferPool::deallocate_node(void* p, std::size_t bytes) noexcept {
  if (bytes == node_size_ && nodes_.size() < kMaxNodes) {
    try {
      nodes_.push_back(p);
      return;
    } catch (...) {  // fall through to plain delete
    }
  }
  ::operator delete(p);
}

void BufferPool::trim() noexcept {
  for (auto& cls : free_) {
    cls.clear();
    cls.shrink_to_fit();
  }
  for (void* p : nodes_) ::operator delete(p);
  nodes_.clear();
  nodes_.shrink_to_fit();
}

std::size_t BufferPool::cached_buffers() const noexcept {
  std::size_t total = 0;
  for (const auto& cls : free_) total += cls.size();
  return total;
}

}  // namespace pdc::mp
