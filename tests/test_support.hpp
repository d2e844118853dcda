// pdceval -- helpers shared by several test binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace pdc::test {

/// 64-bit FNV-1a offset basis: the digest of no bytes.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a, folded over `bytes` starting from `h`.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h, std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Heap allocations (every form of the global operator new) this process
/// has made so far. Defined in heap_count.cpp, which replaces the global
/// operator new with a counting malloc shim; a test binary that pins an
/// allocation count links it.
[[nodiscard]] unsigned long long heap_allocs() noexcept;

}  // namespace pdc::test
