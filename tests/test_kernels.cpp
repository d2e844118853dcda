// Unit tests for the compute-kernel layer (src/kernels): the
// order-preserving contract, pinned pre-kernel golden checksums for every
// app workload (on BOTH dispatch paths), the scratch arena, and the sweep
// host-work telemetry.
//
// The golden constants below were produced by the pre-kernel-layer apps
// (naive DCT with std::cos in the innermost loop, incremental FFT
// twiddles, std::sort, one divide per MC sample) at commit time. The
// kernels layer must reproduce every one of them byte-for-byte; a change
// to any constant means the order-preserving contract was broken.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <complex>
#include <cstdint>
#include <vector>

#include "apps/fft/fft.hpp"
#include "apps/jpeg/codec.hpp"
#include "apps/mc/montecarlo.hpp"
#include "apps/sort/psrs.hpp"
#include "eval/cell.hpp"
#include "jpeg_oracle.hpp"
#include "kernels/arena.hpp"
#include "kernels/dct.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/fft.hpp"
#include "kernels/hostwork.hpp"
#include "kernels/mc.hpp"
#include "kernels/reference.hpp"
#include "kernels/sort.hpp"
#include "sim/rng.hpp"

namespace pdc {
namespace {

// ---------------------------------------------------------------------------
// Pinned pre-change goldens (see file comment). Seed and workload sizes
// match the APL configurations the paper tables use.
constexpr std::uint64_t kSeed = 20260706;

constexpr std::uint64_t kJpegStreamSize = 25226ULL;
constexpr std::uint64_t kJpegStreamFnv = 0x05477833EB9AD1D1ULL;
constexpr std::uint64_t kJpegPixelsFnv = 0x0BB9269C9CB666BDULL;
constexpr std::uint64_t kJpegPsnrBits = 0x40429FF84961A80EULL;
constexpr std::uint64_t kFftSpectrumFnv = 0xC3B559E1C16933F4ULL;
constexpr std::uint64_t kFftRoundtripFnv = 0x317272A9BA0B385EULL;
constexpr std::uint64_t kPsrsSortedFnv = 0xF0A3726D91E3A489ULL;
constexpr std::uint64_t kMcEstimateBits = 0x400922465630DBA0ULL;

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x00000100000001B3ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_vec(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}

/// Runs `fn` once per compiled dispatch path (scalar always; AVX2 when the
/// build and CPU provide it), restoring the dispatch override afterwards.
template <typename Fn>
void for_each_isa(Fn&& fn) {
  kernels::force_scalar(true);
  ASSERT_EQ(kernels::active_isa(), kernels::Isa::Scalar);
  fn(kernels::Isa::Scalar);
  kernels::force_scalar(false);
  if (kernels::active_isa() == kernels::Isa::Avx2) {
    fn(kernels::Isa::Avx2);
  }
}

// ---------------------------------------------------------------------------
// Golden reproduction, per app, per dispatch path.

TEST(KernelGoldens, JpegBitIdenticalOnAllPaths) {
  const apps::jpeg::Image img = apps::jpeg::make_test_image(512, 512, kSeed);
  for_each_isa([&](kernels::Isa isa) {
    SCOPED_TRACE(kernels::to_string(isa));
    const auto stream = apps::jpeg::compress(img, 50);
    ASSERT_EQ(stream.size(), kJpegStreamSize);
    EXPECT_EQ(fnv1a_vec(stream), kJpegStreamFnv);
    const apps::jpeg::Image round = apps::jpeg::oracle::decompress(stream, 512, 512, 50);
    EXPECT_EQ(fnv1a_vec(round.pixels), kJpegPixelsFnv);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(apps::jpeg::oracle::psnr(img, round)),
              kJpegPsnrBits);
  });
}

TEST(KernelGoldens, FftBitIdenticalOnAllPaths) {
  const apps::fft::Matrix sig = apps::fft::make_test_signal(64, kSeed);
  for_each_isa([&](kernels::Isa isa) {
    SCOPED_TRACE(kernels::to_string(isa));
    const apps::fft::Matrix spec = apps::fft::fft2d_serial(sig, false);
    const apps::fft::Matrix back = apps::fft::fft2d_serial(spec, true);
    EXPECT_EQ(fnv1a_vec(spec.data), kFftSpectrumFnv);
    EXPECT_EQ(fnv1a_vec(back.data), kFftRoundtripFnv);
  });
}

TEST(KernelGoldens, PsrsBitIdenticalOnAllPaths) {
  for_each_isa([&](kernels::Isa isa) {
    SCOPED_TRACE(kernels::to_string(isa));
    const auto sorted = apps::sort::sort_serial(500'000, 8, kSeed);
    EXPECT_EQ(fnv1a_vec(sorted), kPsrsSortedFnv);
  });
}

TEST(KernelGoldens, MonteCarloBitIdenticalOnAllPaths) {
  for_each_isa([&](kernels::Isa isa) {
    SCOPED_TRACE(kernels::to_string(isa));
    const auto mc = apps::mc::integrate_serial(1'500'000, 16, 8, kSeed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mc.estimate), kMcEstimateBits);
  });
}

// ---------------------------------------------------------------------------
// Kernel vs naive reference, element-for-element.

void fill_block(sim::Rng& rng, double (&b)[8][8]) {
  for (auto& row : b) {
    for (double& v : row) v = rng.next_double() * 256.0 - 128.0;
  }
}

TEST(KernelDct, MatchesReferenceBitForBit) {
  sim::Rng rng(kSeed);
  for (int trial = 0; trial < 32; ++trial) {
    double in[8][8], want[8][8];
    fill_block(rng, in);
    kernels::ref::forward_dct(in, want);
    for_each_isa([&](kernels::Isa isa) {
      SCOPED_TRACE(kernels::to_string(isa));
      double got[8][8];
      kernels::forward_dct(in, got);
      for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[u][v]),
                    std::bit_cast<std::uint64_t>(want[u][v]))
              << "(" << u << "," << v << ")";
        }
      }
    });
  }
}

TEST(KernelFft, MatchesReferenceBitForBit) {
  sim::Rng rng(kSeed);
  for (std::size_t n : {1u, 2u, 8u, 64u, 256u}) {
    std::vector<std::complex<double>> base(n);
    for (auto& c : base) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};
    for (bool inverse : {false, true}) {
      auto want = base;
      kernels::ref::fft1d(want, inverse);
      auto got = base;
      kernels::fft1d(got, inverse);
      ASSERT_EQ(fnv1a(got.data(), got.size() * sizeof(got[0])),
                fnv1a(want.data(), want.size() * sizeof(want[0])))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(KernelFft, TwiddleTableMatchesRecurrence) {
  const auto tw = kernels::fft_twiddles(64, false);
  ASSERT_EQ(tw.size(), 32u);
  // Same span returned on a second call (cached, stable address).
  EXPECT_EQ(tw.data(), kernels::fft_twiddles(64, false).data());
  EXPECT_EQ(tw[0], std::complex<double>(1.0, 0.0));
}

TEST(KernelSort, MatchesStdSortAcrossDistributions) {
  sim::Rng rng(kSeed);
  auto check = [](std::vector<std::int32_t> v) {
    auto want = v;
    std::sort(want.begin(), want.end());
    kernels::sort_i32(v);
    ASSERT_EQ(v, want);
  };
  check({});
  check({7});
  check({2, 1});
  check(std::vector<std::int32_t>(1000, 42));  // constant: all passes skipped
  std::vector<std::int32_t> random(100'000);
  for (auto& k : random) k = rng.uniform_i32(-1'000'000'000, 1'000'000'000);
  check(random);
  std::sort(random.begin(), random.end());
  check(random);  // already sorted
  std::reverse(random.begin(), random.end());
  check(random);  // reverse sorted
  std::vector<std::int32_t> narrow(50'000);
  for (auto& k : narrow) k = rng.uniform_i32(-3, 3);  // heavy duplicates
  check(narrow);
  std::vector<std::int32_t> extremes = {std::numeric_limits<std::int32_t>::min(),
                                        std::numeric_limits<std::int32_t>::max(), 0, -1, 1,
                                        std::numeric_limits<std::int32_t>::min()};
  check(extremes);
}

TEST(KernelMc, MatchesReferenceBitForBit) {
  for (std::int64_t count : {0, 1, 7, 255, 256, 257, 100'000}) {
    sim::Rng ref_rng(kSeed);
    const double want = kernels::ref::inv_quad_sum(ref_rng, count);
    for_each_isa([&](kernels::Isa isa) {
      SCOPED_TRACE(kernels::to_string(isa));
      sim::Rng rng(kSeed);
      const double got = kernels::inv_quad_sum(rng, count);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
          << "count=" << count;
    });
  }
}

// ---------------------------------------------------------------------------
// Infrastructure: arena, dispatch, host-work accounting.

TEST(KernelArena, FramesReuseStorageWithoutGrowing) {
  auto& arena = kernels::Arena::local();
  {  // warm up: force at least one block
    kernels::Arena::Frame frame(arena);
    (void)arena.take<double>(1000);
  }
  const auto warm = arena.stats();
  for (int i = 0; i < 100; ++i) {
    kernels::Arena::Frame frame(arena);
    const auto span = arena.take<double>(1000);
    ASSERT_EQ(span.size(), 1000u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span.data()) % 64, 0u) << "64-byte alignment";
  }
  const auto after = arena.stats();
  EXPECT_EQ(after.grows, warm.grows) << "steady-state frames must not allocate";
  EXPECT_EQ(after.bytes_reserved, warm.bytes_reserved);
  EXPECT_EQ(after.takes, warm.takes + 100);
}

TEST(KernelArena, GrowsAcrossBlocksKeepsSpansValid) {
  auto& arena = kernels::Arena::local();
  kernels::Arena::Frame frame(arena);
  // Two spans bigger than one min-block each: must land in distinct live
  // storage, both writable.
  const auto a = arena.take<std::uint8_t>(200 * 1024);
  const auto b = arena.take<std::uint8_t>(300 * 1024);
  std::fill(a.begin(), a.end(), std::uint8_t{0xAA});
  std::fill(b.begin(), b.end(), std::uint8_t{0xBB});
  EXPECT_EQ(a[0], 0xAA);
  EXPECT_EQ(b[0], 0xBB);
  EXPECT_EQ(a[a.size() - 1], 0xAA);
}

TEST(KernelDispatch, ForceScalarOverridesAndRestores) {
  const auto initial = kernels::active_isa();
  kernels::force_scalar(true);
  EXPECT_EQ(kernels::active_isa(), kernels::Isa::Scalar);
  kernels::force_scalar(false);
  EXPECT_EQ(kernels::active_isa(), initial);
  // The active ISA can only be AVX2 when the TU was compiled in.
  if (!kernels::simd_compiled()) {
    EXPECT_EQ(kernels::active_isa(), kernels::Isa::Scalar);
  }
  EXPECT_STREQ(kernels::to_string(kernels::Isa::Scalar), "scalar");
  EXPECT_STREQ(kernels::to_string(kernels::Isa::Avx2), "avx2");
}

TEST(KernelHostWork, ProbeChargesWallTime) {
  const auto before = kernels::host_work();
  std::vector<std::int32_t> keys(200'000);
  sim::Rng rng(kSeed);
  for (auto& k : keys) k = rng.uniform_i32(-1000, 1000);
  kernels::sort_i32(keys);  // probed kernel entry point
  const auto after = kernels::host_work();
  EXPECT_GT(after.calls, before.calls);
  EXPECT_GT(after.app_ns, before.app_ns);
}

TEST(SweepHostStats, SplitsAppComputeFromSimOverhead) {
  std::vector<eval::CellSpec> cells;
  for (int procs : {1, 2}) {
    cells.push_back(eval::CellSpec::of(eval::AppCell{
        host::PlatformId::AlphaFddi, mp::ToolKind::P4, eval::AppKind::MonteCarlo, procs}));
  }
  (void)eval::sweep(cells, 1);
  const auto stats = eval::last_sweep_host_stats();
  EXPECT_EQ(stats.cells, cells.size());
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_GT(stats.app_ns, 0u) << "MC cells run real kernel compute";
  EXPECT_GT(stats.kernel_calls, 0u);
  EXPECT_LE(stats.app_ns, stats.wall_ns);
  EXPECT_EQ(stats.sim_ns(), stats.wall_ns - stats.app_ns);
  EXPECT_GT(stats.app_share(), 0.0);
  EXPECT_LE(stats.app_share(), 1.0);
}

TEST(SweepHostStats, ArenaStaysWarmAcrossSweeps) {
  const eval::AppCell sort_cell{host::PlatformId::AlphaFddi, mp::ToolKind::P4,
                                eval::AppKind::Psrs, 2};
  const std::vector<eval::CellSpec> cells(4, eval::CellSpec::of(sort_cell));
  (void)eval::sweep(cells, 1);  // warm the worker's arena
  (void)eval::sweep(cells, 1);
  const auto stats = eval::last_sweep_host_stats();
  EXPECT_GT(stats.arena_takes, 0u) << "sort kernels draw scratch from the arena";
  EXPECT_EQ(stats.arena_grows, 0u) << "steady-state sweeps must not grow the arena";
  EXPECT_EQ(stats.arena_bytes, 0u);
}

}  // namespace
}  // namespace pdc
