#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

double balanced_median(const std::vector<double>& samples, const std::vector<int>& group) {
  if (group.size() != samples.size()) return median(samples);
  std::map<int, std::vector<double>> by_group;
  for (std::size_t i = 0; i < samples.size(); ++i) by_group[group[i]].push_back(samples[i]);
  if (by_group.empty()) return 0.0;
  double sum = 0.0;
  for (auto& [g, v] : by_group) sum += median(std::move(v));
  return sum / static_cast<double>(by_group.size());
}

Tail tail_of(const std::vector<double>& samples) {
  Tail t;
  t.samples = samples.size();
  const double n = static_cast<double>(samples.size());
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    // Samples beyond q; the epsilon keeps 100 * (1 - 0.9) from rounding below 10.
    if (std::floor(n * (1.0 - q) + 1e-9) >= 10.0) {
      t.q = q;
      t.enough = true;
      break;
    }
  }
  t.value = percentile(samples, t.q);
  return t;
}

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix64::below(std::uint64_t n) noexcept {
  // Rejection keeps the draw exactly uniform for any n.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  for (;;) {
    const std::uint64_t v = next();
    if (v < limit) return v % n;
  }
}

std::uint64_t substream(std::uint64_t seed, std::string_view stream) noexcept {
  const auto* p = reinterpret_cast<const std::byte*>(stream.data());
  SplitMix64 mix(seed ^ fnv1a({p, stream.size()}));
  return mix.next();
}

std::uint64_t fnv1a(std::span<const std::byte> bytes, std::uint64_t h) noexcept {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t ResultChecker::reference_digest() const noexcept {
  return fnv1a({reinterpret_cast<const std::byte*>(reference_.data()),
                reference_.size() * sizeof(std::uint64_t)});
}

std::uint64_t ResultChecker::mismatches(std::span<const std::uint64_t> digests) const noexcept {
  const std::size_t common = std::min(digests.size(), reference_.size());
  std::uint64_t bad = std::max(digests.size(), reference_.size()) - common;
  for (std::size_t i = 0; i < common; ++i) bad += digests[i] != reference_[i] ? 1 : 0;
  return bad;
}

}  // namespace perfbench
