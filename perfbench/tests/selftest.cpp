// Tests of perfbench's own helpers: order statistics, the median-of-passes
// (per-block aggregation), CPU-balanced median and overhead math, seeded
// input determinism, and the result checker catching a single flipped
// result byte. Checks stay on in every build type and need no test
// framework, so the package needs only the library.
//
//   ctest --test-dir <build dir>      or      <build dir>/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cpp:%d: FAILED: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_math() {
  using perfbench::percentile;
  const std::vector<double> v = {4, 1, 3, 2};
  CHECK(near(percentile(v, 0.0), 1.0));
  CHECK(near(percentile(v, 1.0), 4.0));
  CHECK(near(percentile(v, 0.5), 2.5));    // between ranks 1 and 2
  CHECK(near(percentile(v, 0.25), 1.75));  // rank 0.75
  CHECK(near(percentile({}, 0.5), 0.0));
  CHECK(near(percentile({7}, 0.99), 7.0));
  // Out-of-range q clamps instead of reading past the ends.
  CHECK(near(percentile(v, 1.5), 4.0));
  CHECK(near(percentile(v, -1.0), 1.0));
}

void median_of_passes() {
  using perfbench::median;
  // A pass time series with one slow outlier: the median ignores it.
  CHECK(near(median({1.02, 0.98, 1.00, 5.0, 1.01}), 1.01));
  CHECK(near(median({2.0, 1.0}), 1.5));
  // Tracing overhead is traced median / untraced median - 1.
  CHECK(near(perfbench::overhead({1.0, 1.0, 9.0}, {1.1, 1.1}), 0.1));
  CHECK(near(perfbench::overhead({}, {1.0}), 0.0));

  // Each pass's block of single ops adds its median to the series the
  // end-to-end median is taken over; an empty block adds nothing. Single
  // ops are kept only when asked (traced runs, for the tails).
  perfbench::Latencies untraced(false), traced(true);
  untraced.add_block(untraced.hit, {3.0, 1.0, 2.0});
  untraced.add_block(untraced.hit, {10.0, 50.0, 20.0, 30.0});
  untraced.add_block(untraced.hit, {});
  CHECK(untraced.hit.agg == (std::vector<double>{2.0, 25.0}));
  CHECK(untraced.hit.ops.empty());
  traced.add_block(traced.cell, {4.0, 6.0});
  CHECK(traced.cell.agg == std::vector<double>{5.0});
  CHECK(traced.cell.ops == (std::vector<double>{4.0, 6.0}));
  CHECK(near(median(untraced.hit.agg), 13.5));
  CHECK(untraced.hit.cpu == (std::vector<int>{0, 0}));

  // Aggregates tagged with the CPU they ran on: every CPU weighs the same,
  // however many passes landed on it. CPU 1 runs 1.5x slower here, and
  // has one pass more than CPU 0.
  perfbench::Latencies rotated(false);
  rotated.add_block(rotated.cell, {2.0}, 0);
  rotated.add_block(rotated.cell, {3.0}, 1);
  rotated.add_block(rotated.cell, {2.2}, 0);
  rotated.add_block(rotated.cell, {3.3}, 1);
  rotated.add_block(rotated.cell, {3.1}, 1);
  CHECK(rotated.cell.cpu == (std::vector<int>{0, 1, 0, 1, 1}));
  using perfbench::balanced_median;
  CHECK(near(balanced_median(rotated.cell.agg, rotated.cell.cpu), (2.1 + 3.1) / 2));
  CHECK(near(median(rotated.cell.agg), 3.0));  // the plain median sides with CPU 1
  // One group, or no groups given: the plain median.
  CHECK(near(balanced_median({1.0, 5.0, 2.0}, {3, 3, 3}), 2.0));
  CHECK(near(balanced_median({1.0, 5.0, 2.0}, {}), 2.0));
  CHECK(near(balanced_median({}, {}), 0.0));
}

void tail_rule() {
  using perfbench::tail_of;
  const auto series = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    return v;
  };
  // The highest quantile with at least ten samples beyond it.
  CHECK(tail_of(series(10000)).q == 0.999);
  CHECK(tail_of(series(1000)).q == 0.99);
  CHECK(tail_of(series(999)).q == 0.9);
  CHECK(tail_of(series(100)).q == 0.9);
  CHECK(tail_of(series(20)).q == 0.5 && tail_of(series(20)).enough);
  CHECK(!tail_of(series(19)).enough);
  CHECK(tail_of(series(1000)).samples == 1000);
  CHECK(near(tail_of(series(1000)).value, 0.99 * 999));
}

void seeded_generators() {
  perfbench::SplitMix64 a(42), b(42), c(43);
  bool same = true, differs = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.next();
    same = same && x == b.next();
    differs = differs || x != c.next();
  }
  CHECK(same);
  CHECK(differs);
  CHECK(perfbench::substream(1, "a") != perfbench::substream(1, "b"));
  CHECK(perfbench::substream(1, "a") == perfbench::substream(1, "a"));
  perfbench::SplitMix64 r(5);
  bool in_range = true;
  for (int i = 0; i < 10000; ++i) in_range = in_range && r.below(7) < 7;
  CHECK(in_range);

  // fabric: same seed, same order; another seed reorders the same cells.
  // Digests of the encoded specs, one per op (byte 0 of a spec is its type).
  const auto encoded = [](const std::vector<pdc::eval::CellSpec>& ops) {
    std::vector<std::uint64_t> out;
    for (const auto& op : ops) {
      const auto bytes = pdc::eval::encode_spec(op);
      out.push_back(bytes[0] == std::byte{1} ? perfbench::fnv1a(bytes) : 0);  // CellType::Tpl
    }
    return out;
  };
  const auto f1 = encoded(perfbench::fabric_ops(1));
  const auto f1b = encoded(perfbench::fabric_ops(1));
  const auto f2 = encoded(perfbench::fabric_ops(2));
  CHECK(f1 == f1b);
  CHECK(f1 != f2);
  CHECK(f1.size() == 93);  // 81 primitive cells + 12 job streams
  const std::multiset<std::uint64_t> tpl1(f1.begin(), f1.end()), tpl2(f2.begin(), f2.end());
  CHECK(tpl1 == tpl2);  // the seed moves the order and the job streams only

  // service: the script is a pure function of (seed, read-set size).
  const std::size_t reads = perfbench::service_read_set().size();
  perfbench::ServiceScript s1(9, reads), s2(9, reads), s3(10, reads);
  int writes = 0, invalidates = 0;
  bool scripts_equal = true, scripts_differ = false;
  std::set<std::uint64_t> written;
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    const auto x = s1.next();
    const auto y = s2.next();
    const auto z = s3.next();
    const auto digest = [](const perfbench::ServiceOp& op) {
      auto bytes = pdc::eval::encode_spec(op.spec);
      bytes.push_back(static_cast<std::byte>(op.kind));
      bytes.push_back(static_cast<std::byte>(op.index & 0xFF));
      return perfbench::fnv1a(bytes);
    };
    scripts_equal = scripts_equal && digest(x) == digest(y);
    scripts_differ = scripts_differ || digest(x) != digest(z);
    if (x.kind == perfbench::ServiceOp::Kind::Write) {
      ++writes;
      written.insert(perfbench::fnv1a(pdc::eval::encode_spec(x.spec)));
    }
    invalidates += x.kind == perfbench::ServiceOp::Kind::Invalidate;
  }
  CHECK(scripts_equal);
  CHECK(scripts_differ);
  CHECK(writes > kOps * 0.04 && writes < kOps * 0.06);
  CHECK(invalidates > kOps * 0.003 && invalidates < kOps * 0.007);
  CHECK(written.size() == static_cast<std::size_t>(writes));  // every write is never-seen
}

void flipped_byte_is_a_failure() {
  // A pass of three Table 3 cells, checked against its own reference.
  const auto grid = pdc::eval::table3_grid();
  std::vector<std::vector<std::byte>> outputs;
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < 3; ++i) {
    outputs.push_back(pdc::eval::encode_result(pdc::eval::run_cell(grid[i])));
    digests.push_back(perfbench::fnv1a(outputs.back()));
  }
  const perfbench::ResultChecker checker(digests);
  CHECK(checker.mismatches(digests) == 0);

  // Flip one bit of one byte of the second result: exactly one failed op.
  std::vector<std::byte> flipped = outputs[1];
  flipped[flipped.size() - 1] ^= std::byte{0x01};
  std::vector<std::uint64_t> pass = digests;
  pass[1] = perfbench::fnv1a(flipped);
  CHECK(checker.mismatches(pass) == 1);

  // A missing item is a failure too.
  pass = digests;
  pass.pop_back();
  CHECK(checker.mismatches(pass) == 1);

  // The failure reaches the result object: failed ops make it incorrect.
  perfbench::Report report;
  report.ops(3, checker.mismatches(digests));
  CHECK(report.correct());
  report.ops(3, 1);
  CHECK(!report.correct());
  CHECK(report.result_json(false).find("\"failed\": 1") != std::string::npos);
}

}  // namespace

int main() {
  percentile_math();
  median_of_passes();
  tail_rule();
  seeded_generators();
  flipped_byte_is_a_failure();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
