// perfbench -- small numeric and checking helpers shared by the workloads:
// order statistics over latency samples, the seeded generator every
// workload input comes from, and the result checker that compares each
// output against a reference by digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// The q-quantile (q in [0, 1]) of `samples`, linearly interpolated between
/// the two closest ranks of the sorted samples (rank q * (n - 1)); 0 for an
/// empty set. Takes a copy: callers keep their sample order.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// percentile(samples, 0.5).
[[nodiscard]] double median(std::vector<double> samples);

/// The mean, over the groups named in `group` (one entry per sample), of
/// each group's median: every group weighs the same however many samples
/// it has. With one group -- or `group` empty -- the plain median.
[[nodiscard]] double balanced_median(const std::vector<double>& samples,
                                     const std::vector<int>& group);

/// Report form of a latency tail: the highest of the p99.9 / p99 / p90 /
/// p50 quantiles that still has at least ten samples beyond it, with the
/// sample count. With fewer than 20 samples no quantile qualifies and the
/// median is reported with `enough == false`.
struct Tail {
  double q{0.5};
  double value{0.0};
  std::size_t samples{0};
  bool enough{false};
};
[[nodiscard]] Tail tail_of(const std::vector<double>& samples);

/// SplitMix64: the deterministic generator behind every seeded input.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}
  [[nodiscard]] std::uint64_t next() noexcept;
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform in [0, n); n > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

 private:
  std::uint64_t state_;
};

/// Derive an independent seed for the stream named `stream` from `seed`,
/// so that adding a consumer never shifts the draws of another.
[[nodiscard]] std::uint64_t substream(std::uint64_t seed, std::string_view stream) noexcept;

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::byte> bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ull) noexcept;

/// Compares each output of a pass, item by item, with the digest of the
/// reference output for the same item. A mismatch is a failed op.
class ResultChecker {
 public:
  ResultChecker() = default;
  explicit ResultChecker(std::vector<std::uint64_t> reference)
      : reference_(std::move(reference)) {}

  [[nodiscard]] std::size_t size() const noexcept { return reference_.size(); }
  [[nodiscard]] const std::vector<std::uint64_t>& reference() const noexcept {
    return reference_;
  }
  /// Digest of all reference items, in order.
  [[nodiscard]] std::uint64_t reference_digest() const noexcept;

  /// Items of a pass whose digests differ from the reference, counting
  /// missing and extra items as mismatches too.
  [[nodiscard]] std::uint64_t mismatches(std::span<const std::uint64_t> digests) const noexcept;

 private:
  std::vector<std::uint64_t> reference_;
};

}  // namespace perfbench
