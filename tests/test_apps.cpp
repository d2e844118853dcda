// Application suite tests: serial codecs/algorithms are correct, and every
// distributed implementation produces results identical to its serial
// reference under every tool and a sweep of process counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "apps/fft/parallel.hpp"
#include "apps/jpeg/parallel.hpp"
#include "apps/mc/montecarlo.hpp"
#include "apps/sort/psrs.hpp"
#include "mp/api.hpp"

namespace pdc {
namespace {

using host::PlatformId;
using mp::ToolKind;

// ---------- JPEG codec ------------------------------------------------------

TEST(JpegCodec, DctRoundTripsExactly) {
  double in[8][8], freq[8][8], back[8][8];
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) in[x][y] = std::sin(x * 0.9) * 40 + y * 3 - 20;
  }
  apps::jpeg::forward_dct(in, freq);
  apps::jpeg::inverse_dct(freq, back);
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) EXPECT_NEAR(back[x][y], in[x][y], 1e-9);
  }
}

TEST(JpegCodec, DctOfConstantBlockIsDcOnly) {
  double in[8][8], freq[8][8];
  for (auto& row : in) std::fill(row, row + 8, 100.0);
  apps::jpeg::forward_dct(in, freq);
  EXPECT_NEAR(freq[0][0], 800.0, 1e-9);  // 8 * mean
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      if (u || v) {
        EXPECT_NEAR(freq[u][v], 0.0, 1e-9);
      }
    }
  }
}

TEST(JpegCodec, QuantTableScalesWithQuality) {
  const auto q10 = apps::jpeg::quant_table(10);
  const auto q90 = apps::jpeg::quant_table(90);
  for (std::size_t i = 0; i < q10.size(); ++i) {
    EXPECT_GE(q10[i], q90[i]);
    EXPECT_GE(q90[i], 1);
    EXPECT_LE(q10[i], 255);
  }
}

TEST(JpegCodec, CompressDecompressPreservesImageQuality) {
  const auto img = apps::jpeg::make_test_image(64, 64, 7);
  const auto stream = apps::jpeg::compress(img, 75);
  // It actually compresses: symbol stream smaller than raw pixels.
  EXPECT_LT(stream.size() * sizeof(std::int16_t), img.pixels.size());
  const auto back = apps::jpeg::decompress(stream, 64, 64, 75);
  EXPECT_GT(apps::jpeg::psnr(img, back), 30.0);
  // Lower quality -> smaller stream, lower fidelity.
  const auto stream20 = apps::jpeg::compress(img, 20);
  EXPECT_LT(stream20.size(), stream.size());
  const auto back20 = apps::jpeg::decompress(stream20, 64, 64, 20);
  EXPECT_LT(apps::jpeg::psnr(img, back20), apps::jpeg::psnr(img, back));
}

TEST(JpegCodec, CompressRowsSplitsCleanly) {
  const auto img = apps::jpeg::make_test_image(32, 32, 3);
  const auto whole = apps::jpeg::compress(img, 50);
  auto a = apps::jpeg::compress_rows(img, 0, 16, 50);
  const auto b = apps::jpeg::compress_rows(img, 16, 32, 50);
  a.insert(a.end(), b.begin(), b.end());
  EXPECT_EQ(a, whole);
  EXPECT_THROW(apps::jpeg::compress_rows(img, 3, 16, 50), std::invalid_argument);
}

TEST(JpegCodec, DecompressRejectsCorruptStreams) {
  const auto img = apps::jpeg::make_test_image(16, 16, 5);
  auto stream = apps::jpeg::compress(img, 50);
  EXPECT_THROW(apps::jpeg::decompress({stream.data(), stream.size() - 1}, 16, 16, 50),
               std::invalid_argument);
  EXPECT_THROW(apps::jpeg::decompress(stream, 17, 16, 50), std::invalid_argument);
}

// ---------- FFT -------------------------------------------------------------

TEST(Fft, KnownTransformOfImpulse) {
  std::vector<apps::fft::Complex> v(8, {0, 0});
  v[0] = {1, 0};
  apps::fft::fft1d(v);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr int kN = 64;
  std::vector<apps::fft::Complex> v(kN);
  for (int i = 0; i < kN; ++i) {
    v[static_cast<std::size_t>(i)] = {std::cos(2 * std::numbers::pi * 5 * i / kN), 0.0};
  }
  apps::fft::fft1d(v);
  for (int k = 0; k < kN; ++k) {
    const double mag = std::abs(v[static_cast<std::size_t>(k)]);
    if (k == 5 || k == kN - 5) {
      EXPECT_NEAR(mag, kN / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9);
    }
  }
}

TEST(Fft, ForwardInverseRoundTrip) {
  auto m = apps::fft::make_test_signal(32, 11);
  const auto original = m;
  auto f = apps::fft::fft2d_serial(std::move(m));
  const auto back = apps::fft::fft2d_serial(std::move(f), /*inverse=*/true);
  EXPECT_LT(apps::fft::max_abs_diff(original, back), 1e-10);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<apps::fft::Complex> v(12);
  EXPECT_THROW(apps::fft::fft1d(v), std::invalid_argument);
  EXPECT_THROW(apps::fft::make_test_signal(12, 1), std::invalid_argument);
}

// ---------- Distributed == serial, across tools and process counts ----------

struct Combo {
  ToolKind tool;
  int procs;
};

class DistributedApps : public ::testing::TestWithParam<Combo> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedApps,
    ::testing::Values(Combo{ToolKind::P4, 2}, Combo{ToolKind::P4, 4}, Combo{ToolKind::P4, 8},
                      Combo{ToolKind::Pvm, 2}, Combo{ToolKind::Pvm, 4}, Combo{ToolKind::Pvm, 8},
                      Combo{ToolKind::Express, 2}, Combo{ToolKind::Express, 4},
                      Combo{ToolKind::Express, 8}),
    [](const auto& info) {
      return std::string(to_string(info.param.tool)) + "_" +
             std::to_string(info.param.procs) + "procs";
    });

TEST_P(DistributedApps, JpegMatchesSerialBitExactly) {
  const auto [tool, procs] = GetParam();
  const auto img = apps::jpeg::make_test_image(64, 64, 42);
  const auto expected = apps::jpeg::compress(img, 50);
  std::vector<std::int16_t> got;
  auto program = [&img, &got](mp::Communicator& c) -> sim::Task<void> {
    co_await apps::jpeg::compress_distributed(c, img, 50, c.rank() == 0 ? &got : nullptr);
  };
  mp::run_spmd(PlatformId::AlphaFddi, procs, tool, program);
  EXPECT_EQ(got, expected);
}

TEST_P(DistributedApps, FftMatchesSerial) {
  const auto [tool, procs] = GetParam();
  const auto expected = apps::fft::fft2d_serial(apps::fft::make_test_signal(32, 9));
  apps::fft::Matrix got;
  auto program = [&got](mp::Communicator& c) -> sim::Task<void> {
    co_await apps::fft::fft2d_distributed(c, 32, 9, c.rank() == 0 ? &got : nullptr);
  };
  mp::run_spmd(PlatformId::Sp1Switch, procs, tool, program);
  ASSERT_EQ(got.n, 32);
  EXPECT_LT(apps::fft::max_abs_diff(got, expected), 1e-9);
}

TEST_P(DistributedApps, MonteCarloMatchesSerialExactly) {
  const auto [tool, procs] = GetParam();
  const auto expected = apps::mc::integrate_serial(160'000, 4, procs, 77);
  apps::mc::Result got{};
  auto program = [&got, procs](mp::Communicator& c) -> sim::Task<void> {
    apps::mc::Result local{};
    co_await apps::mc::integrate_distributed(c, 160'000, 4, 77, &local);
    if (c.rank() == 0) got = local;
    (void)procs;
  };
  mp::run_spmd(PlatformId::SunEthernet, procs, tool, program);
  EXPECT_EQ(got.samples, expected.samples);
  EXPECT_NEAR(got.estimate, expected.estimate, 1e-12);
  EXPECT_NEAR(got.estimate, std::numbers::pi, 0.01);
}

TEST_P(DistributedApps, PsrsMatchesSerialSort) {
  const auto [tool, procs] = GetParam();
  const auto expected = apps::sort::sort_serial(40'000, procs, 5);
  std::vector<std::int32_t> got;
  auto program = [&got](mp::Communicator& c) -> sim::Task<void> {
    co_await apps::sort::psrs_distributed(c, 40'000, 5, c.rank() == 0 ? &got : nullptr);
  };
  mp::run_spmd(PlatformId::SunAtmLan, std::min(procs, 4), tool, program);
  const auto check = apps::sort::sort_serial(40'000, std::min(procs, 4), 5);
  EXPECT_EQ(got, check);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  (void)expected;
}

TEST(DistributedApps, SingleProcessDegeneratesGracefully) {
  for (ToolKind tool : mp::all_tools()) {
    std::vector<std::int32_t> got;
    auto program = [&got](mp::Communicator& c) -> sim::Task<void> {
      co_await apps::sort::psrs_distributed(c, 10'000, 3, &got);
    };
    mp::run_spmd(PlatformId::AlphaFddi, 1, tool, program);
    EXPECT_EQ(got, apps::sort::sort_serial(10'000, 1, 3)) << to_string(tool);
  }
}

}  // namespace
}  // namespace pdc
