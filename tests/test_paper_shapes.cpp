// The scientific regression suite: every qualitative finding of Hariri et
// al. (orderings, crossovers, winners) is asserted against the simulator,
// and the calibrated cells of Table 3 are held within quantitative bands.
// If a cost-model change breaks a paper result, a test here fails.
#include <gtest/gtest.h>

#include "eval/apl.hpp"
#include "eval/paper_data.hpp"
#include "eval/tpl.hpp"

namespace pdc::eval {
namespace {

using host::PlatformId;
using mp::ToolKind;

class MessageSizes : public ::testing::TestWithParam<std::int64_t> {};

INSTANTIATE_TEST_SUITE_P(Table3Sizes, MessageSizes,
                         ::testing::ValuesIn(paper_message_sizes()),
                         [](const auto& info) { return std::to_string(info.param) + "B"; });

// -- Table 3 -----------------------------------------------------------------

TEST_P(MessageSizes, P4WinsSendRecvEverywhere) {
  const auto bytes = GetParam();
  for (PlatformId p :
       {PlatformId::SunEthernet, PlatformId::SunAtmLan, PlatformId::SunAtmWan}) {
    const double p4 = sendrecv_ms(p, ToolKind::P4, bytes);
    EXPECT_LT(p4, sendrecv_ms(p, ToolKind::Pvm, bytes)) << host::to_string(p);
    EXPECT_LT(p4, sendrecv_ms(p, ToolKind::Express, bytes)) << host::to_string(p);
  }
}

TEST_P(MessageSizes, ExpressVsPvmCrossover) {
  // Paper: Express beats PVM for small messages, PVM beats Express for
  // large ones (crossover around 2-4 KB).
  const auto bytes = GetParam();
  for (PlatformId p : {PlatformId::SunEthernet, PlatformId::SunAtmLan}) {
    const double pvm = sendrecv_ms(p, ToolKind::Pvm, bytes);
    const double express = sendrecv_ms(p, ToolKind::Express, bytes);
    if (bytes <= 1024) {
      EXPECT_LT(express, pvm) << host::to_string(p);
    } else if (bytes >= 8192) {
      EXPECT_LT(pvm, express) << host::to_string(p);
    }
  }
}

TEST_P(MessageSizes, AtmWanIsAtmLanPlusSmallConstant) {
  const auto bytes = GetParam();
  for (ToolKind t : {ToolKind::P4, ToolKind::Pvm}) {
    const double lan = sendrecv_ms(PlatformId::SunAtmLan, t, bytes);
    const double wan = sendrecv_ms(PlatformId::SunAtmWan, t, bytes);
    EXPECT_GT(wan, lan);
    EXPECT_LT(wan - lan, 12.0) << "WAN penalty should stay a small constant (ms)";
  }
}

TEST_P(MessageSizes, AtmBeatsEthernetForBulk) {
  const auto bytes = GetParam();
  if (bytes < 8192) return;  // the win is a bulk-transfer effect
  // Grows with message size; 1.9 not 2.0 -- Express's own published ratio
  // is only 2.02 (154ms ATM vs 312ms Ethernet at 64 KB).
  const double factor = bytes >= 16384 ? 1.9 : 1.5;
  for (ToolKind t : mp::all_tools()) {
    EXPECT_LT(sendrecv_ms(PlatformId::SunAtmLan, t, bytes) * factor,
              sendrecv_ms(PlatformId::SunEthernet, t, bytes))
        << mp::to_string(t);
  }
}

TEST_P(MessageSizes, Table3CellsWithinCalibrationBands) {
  const auto bytes = GetParam();
  for (ToolKind t : mp::all_tools()) {
    for (PlatformId p :
         {PlatformId::SunEthernet, PlatformId::SunAtmLan, PlatformId::SunAtmWan}) {
      const auto published = paper::table3_ms(t, p, bytes);
      if (!published) continue;
      const double ours = sendrecv_ms(p, t, bytes);
      // Every cell within 2x; the bulk (64 KB) cells -- which dominate the
      // paper's conclusions -- within 30%.
      EXPECT_LT(ours, *published * 2.0) << mp::to_string(t) << " " << host::to_string(p);
      EXPECT_GT(ours, *published * 0.5) << mp::to_string(t) << " " << host::to_string(p);
      if (bytes == 65536) {
        EXPECT_NEAR(ours / *published, 1.0, 0.30)
            << mp::to_string(t) << " " << host::to_string(p);
      }
    }
  }
}

// -- Figures 2-4 --------------------------------------------------------------

TEST_P(MessageSizes, BroadcastP4BestExpressWorstOnEthernet) {
  const auto bytes = GetParam();
  const double p4 = broadcast_ms(PlatformId::SunEthernet, ToolKind::P4, 4, bytes);
  const double pvm = broadcast_ms(PlatformId::SunEthernet, ToolKind::Pvm, 4, bytes);
  const double express = broadcast_ms(PlatformId::SunEthernet, ToolKind::Express, 4, bytes);
  EXPECT_LT(p4, pvm);
  EXPECT_LT(p4, express);
  if (bytes >= 8192) {
    EXPECT_GT(express, pvm);  // Express worst where bulk dominates
  }
}

TEST_P(MessageSizes, RingAnomalyExpressBeatsPvm) {
  // Paper Figure 3: "Express outperforms PVM for ring communication" even
  // though PVM wins snd/rcv -- the continuous-flow anomaly.
  const auto bytes = GetParam();
  const double p4 = ring_ms(PlatformId::SunEthernet, ToolKind::P4, 4, bytes);
  const double pvm = ring_ms(PlatformId::SunEthernet, ToolKind::Pvm, 4, bytes);
  const double express = ring_ms(PlatformId::SunEthernet, ToolKind::Express, 4, bytes);
  EXPECT_LT(p4, express);
  EXPECT_LT(express, pvm);
  // And on the ATM WAN (paper plots p4 + PVM): p4 leads.
  EXPECT_LT(ring_ms(PlatformId::SunAtmWan, ToolKind::P4, 4, bytes),
            ring_ms(PlatformId::SunAtmWan, ToolKind::Pvm, 4, bytes));
}

TEST(GlobalSumShape, P4BeatsExpressPvmUnavailable) {
  for (std::int64_t ints : {10'000LL, 40'000LL, 100'000LL}) {
    const auto p4 = global_sum_ms(PlatformId::SunEthernet, ToolKind::P4, 4, ints);
    const auto express = global_sum_ms(PlatformId::SunEthernet, ToolKind::Express, 4, ints);
    ASSERT_TRUE(p4 && express);
    EXPECT_LT(*p4, *express) << ints;
    EXPECT_FALSE(global_sum_ms(PlatformId::SunEthernet, ToolKind::Pvm, 4, ints));
    // NYNET is far faster than Ethernet for big vectors (paper Figure 4).
    const auto p4_wan = global_sum_ms(PlatformId::SunAtmWan, ToolKind::P4, 4, ints);
    ASSERT_TRUE(p4_wan);
    EXPECT_LT(*p4_wan, *p4);
  }
}

// -- Figures 5-8: application winners ----------------------------------------

double app(PlatformId p, ToolKind t, AppKind a, int procs) {
  return app_time_s(p, t, a, procs);
}

TEST(AppWinners, AlphaFddiMatchesPaperFigure5) {
  constexpr auto kP = PlatformId::AlphaFddi;
  // p4 best for JPEG and 2D-FFT.
  EXPECT_LT(app(kP, ToolKind::P4, AppKind::Jpeg, 8), app(kP, ToolKind::Pvm, AppKind::Jpeg, 8));
  EXPECT_LT(app(kP, ToolKind::P4, AppKind::Jpeg, 8),
            app(kP, ToolKind::Express, AppKind::Jpeg, 8));
  EXPECT_LT(app(kP, ToolKind::P4, AppKind::Fft2d, 4),
            app(kP, ToolKind::Pvm, AppKind::Fft2d, 4));
  EXPECT_LT(app(kP, ToolKind::P4, AppKind::Fft2d, 4),
            app(kP, ToolKind::Express, AppKind::Fft2d, 4));
  // Express best for Monte Carlo (native recursive-doubling excombine).
  EXPECT_LT(app(kP, ToolKind::Express, AppKind::MonteCarlo, 8),
            app(kP, ToolKind::P4, AppKind::MonteCarlo, 8));
  EXPECT_LT(app(kP, ToolKind::Express, AppKind::MonteCarlo, 8),
            app(kP, ToolKind::Pvm, AppKind::MonteCarlo, 8));
  // PVM best for sorting (asynchronous buffered all-to-all).
  EXPECT_LT(app(kP, ToolKind::Pvm, AppKind::Psrs, 8), app(kP, ToolKind::P4, AppKind::Psrs, 8));
  EXPECT_LT(app(kP, ToolKind::Pvm, AppKind::Psrs, 8),
            app(kP, ToolKind::Express, AppKind::Psrs, 8));
}

TEST(AppWinners, Sp1ConsistentWithAlphaButSlower) {
  // Paper: "results consistent with the ALPHA cluster... execution times
  // significantly higher on IBM-SP1".
  for (AppKind a : all_apps()) {
    EXPECT_GT(app(PlatformId::Sp1Switch, ToolKind::P4, a, 1),
              app(PlatformId::AlphaFddi, ToolKind::P4, a, 1))
        << to_string(a);
  }
  EXPECT_LT(app(PlatformId::Sp1Switch, ToolKind::P4, AppKind::Jpeg, 8),
            app(PlatformId::Sp1Switch, ToolKind::Pvm, AppKind::Jpeg, 8));
  EXPECT_LT(app(PlatformId::Sp1Switch, ToolKind::Pvm, AppKind::Psrs, 8),
            app(PlatformId::Sp1Switch, ToolKind::P4, AppKind::Psrs, 8));
  EXPECT_LT(app(PlatformId::Sp1Switch, ToolKind::Express, AppKind::MonteCarlo, 8),
            app(PlatformId::Sp1Switch, ToolKind::Pvm, AppKind::MonteCarlo, 8));
}

TEST(AppWinners, ApplicationsScaleWithProcessors) {
  // Compute-bound apps must show real speedup on the fast network.
  for (AppKind a : {AppKind::Jpeg, AppKind::MonteCarlo}) {
    const double t1 = app(PlatformId::AlphaFddi, ToolKind::P4, a, 1);
    const double t8 = app(PlatformId::AlphaFddi, ToolKind::P4, a, 8);
    EXPECT_GT(t1 / t8, 4.0) << to_string(a) << " speedup at 8 procs";
    EXPECT_LT(t1 / t8, 8.5) << to_string(a) << " impossible superlinear speedup";
  }
}

TEST(AppWinners, EthernetLimitsScalingMoreThanFddi) {
  // The shared 10 Mb/s segment throttles the communication-heavy JPEG far
  // more than switched FDDI does (paper Figures 5 vs 8).
  const double fddi_speedup = app(PlatformId::AlphaFddi, ToolKind::P4, AppKind::Jpeg, 1) /
                              app(PlatformId::AlphaFddi, ToolKind::P4, AppKind::Jpeg, 8);
  const double eth_speedup = app(PlatformId::SunEthernet, ToolKind::P4, AppKind::Jpeg, 1) /
                             app(PlatformId::SunEthernet, ToolKind::P4, AppKind::Jpeg, 8);
  EXPECT_GT(fddi_speedup, eth_speedup);
}

TEST(AppWinners, WanFeasibility) {
  // Paper Section 3.3: ATM WAN "can outperform LANs" -- compare the
  // communication-heavy JPEG at 4 processes.
  EXPECT_LT(app(PlatformId::SunAtmWan, ToolKind::P4, AppKind::Jpeg, 4),
            app(PlatformId::SunEthernet, ToolKind::P4, AppKind::Jpeg, 4));
}

}  // namespace
}  // namespace pdc::eval
