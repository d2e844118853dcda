// pdceval -- counting replacement of the global operator new.
//
// Linked into the test binaries that pin heap-allocation counts (an event
// capture that stays inline, a message that allocates nothing, per-rank
// allocation rates at scale). Every allocation goes through malloc and
// bumps one counter; `pdc::test::heap_allocs()` reads it.
#include <atomic>
#include <cstdlib>
#include <new>

#include "test_support.hpp"

namespace {
std::atomic<unsigned long long> g_heap_allocs{0};
}  // namespace

unsigned long long pdc::test::heap_allocs() noexcept {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

// GCC cannot see that the replacement operator-new below hands out malloc
// storage, so pairing it with std::free trips -Wmismatched-new-delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, they would hand out memory the free-based deletes
// below release, which AddressSanitizer reports as a new/free mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
