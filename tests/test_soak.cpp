// Property-based soak suite (the tentpole's proof): sweep seeds x fault
// plans x tools x apps and assert the distributed result still equals the
// serial reference, that replaying a (seed, FaultPlan) is bit-identical,
// and that a zero-fault plan leaves app timings byte-identical to the
// plain-wire API.
//
// Tiers: the default (CI) tier runs one seed per cell; set PDC_SOAK=full
// for the extended sweep (more seeds, more fault shapes, more procs).
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "apps/fft/parallel.hpp"
#include "apps/jpeg/parallel.hpp"
#include "apps/mc/montecarlo.hpp"
#include "apps/sort/psrs.hpp"
#include "eval/apl.hpp"
#include "fault/plan.hpp"
#include "mp/api.hpp"

namespace pdc {
namespace {

using eval::AppKind;
using fault::FaultPlan;
using host::PlatformId;
using mp::ToolKind;

bool full_tier() {
  const char* env = std::getenv("PDC_SOAK");
  return env != nullptr && std::string_view(env) == "full";
}

std::vector<std::uint64_t> soak_seeds() {
  if (full_tier()) return {1, 2, 3, 4, 5};
  return {1};
}

/// Fault shapes to soak under. The first is the acceptance-criteria shape:
/// 20% drop + 5% corruption on every link.
std::vector<FaultPlan> soak_plans(std::uint64_t seed) {
  std::vector<FaultPlan> plans;
  plans.push_back(FaultPlan::uniform(0.20, 0.05, 0.0, 0.0, {}, seed));
  if (full_tier()) {
    plans.push_back(FaultPlan::uniform(0.05, 0.0, 0.2, 0.3, sim::milliseconds(2), seed + 10));
    plans.push_back(FaultPlan::uniform(0.10, 0.02, 0.1, 0.1, sim::milliseconds(1), seed + 20));
  }
  return plans;
}

std::vector<int> soak_procs() {
  if (full_tier()) return {2, 4};
  return {2};
}

/// Run `app` distributed on (platform, tool, procs) under `plan`, assert
/// the result equals the serial reference, and return the outcome.
mp::RunOutcome run_and_check(PlatformId platform, ToolKind tool, AppKind app, int procs,
                             const FaultPlan& plan, std::uint64_t workload_seed) {
  switch (app) {
    case AppKind::Jpeg: {
      const auto img = apps::jpeg::make_test_image(32, 32, workload_seed);
      const auto expected = apps::jpeg::compress(img, 50);
      std::vector<std::int16_t> got;
      auto program = [&](mp::Communicator& c) -> sim::Task<void> {
        co_await apps::jpeg::compress_distributed(c, img, 50, c.rank() == 0 ? &got : nullptr);
      };
      const auto out = mp::run_spmd(platform, procs, tool, program, plan);
      EXPECT_EQ(got, expected);
      return out;
    }
    case AppKind::Fft2d: {
      const auto expected =
          apps::fft::fft2d_serial(apps::fft::make_test_signal(16, workload_seed));
      apps::fft::Matrix got;
      auto program = [&](mp::Communicator& c) -> sim::Task<void> {
        co_await apps::fft::fft2d_distributed(c, 16, workload_seed,
                                              c.rank() == 0 ? &got : nullptr);
      };
      const auto out = mp::run_spmd(platform, procs, tool, program, plan);
      EXPECT_EQ(got.n, 16);
      EXPECT_LT(apps::fft::max_abs_diff(got, expected), 1e-9);
      return out;
    }
    case AppKind::MonteCarlo: {
      const auto expected = apps::mc::integrate_serial(60'000, 4, procs, workload_seed);
      apps::mc::Result got{};
      auto program = [&](mp::Communicator& c) -> sim::Task<void> {
        apps::mc::Result local{};
        co_await apps::mc::integrate_distributed(c, 60'000, 4, workload_seed, &local);
        if (c.rank() == 0) got = local;
      };
      const auto out = mp::run_spmd(platform, procs, tool, program, plan);
      EXPECT_EQ(got.samples, expected.samples);
      // Serial reduces in a different order; last-ulp tolerance as in test_apps.
      EXPECT_NEAR(got.estimate, expected.estimate, 1e-12);
      return out;
    }
    case AppKind::Psrs: {
      const auto expected = apps::sort::sort_serial(12'000, procs, workload_seed);
      std::vector<std::int32_t> got;
      auto program = [&](mp::Communicator& c) -> sim::Task<void> {
        co_await apps::sort::psrs_distributed(c, 12'000, workload_seed,
                                              c.rank() == 0 ? &got : nullptr);
      };
      const auto out = mp::run_spmd(platform, procs, tool, program, plan);
      EXPECT_EQ(got, expected);
      return out;
    }
  }
  throw std::logic_error("unknown app");
}

PlatformId platform_for(AppKind app) {
  // Keep one shared-bus and several switched fabrics in rotation.
  switch (app) {
    case AppKind::Jpeg:
      return PlatformId::AlphaFddi;
    case AppKind::Fft2d:
      return PlatformId::Sp1Switch;
    case AppKind::MonteCarlo:
      return PlatformId::SunEthernet;
    case AppKind::Psrs:
      return PlatformId::SunAtmLan;
  }
  return PlatformId::SunEthernet;
}

struct SoakCombo {
  ToolKind tool;
  AppKind app;
};

class FaultSoak : public ::testing::TestWithParam<SoakCombo> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultSoak,
    ::testing::Values(SoakCombo{ToolKind::P4, AppKind::Jpeg},
                      SoakCombo{ToolKind::P4, AppKind::Fft2d},
                      SoakCombo{ToolKind::P4, AppKind::MonteCarlo},
                      SoakCombo{ToolKind::P4, AppKind::Psrs},
                      SoakCombo{ToolKind::Pvm, AppKind::Jpeg},
                      SoakCombo{ToolKind::Pvm, AppKind::Fft2d},
                      SoakCombo{ToolKind::Pvm, AppKind::MonteCarlo},
                      SoakCombo{ToolKind::Pvm, AppKind::Psrs},
                      SoakCombo{ToolKind::Express, AppKind::Jpeg},
                      SoakCombo{ToolKind::Express, AppKind::Fft2d},
                      SoakCombo{ToolKind::Express, AppKind::MonteCarlo},
                      SoakCombo{ToolKind::Express, AppKind::Psrs}),
    [](const auto& info) {
      const char* app = "";
      switch (info.param.app) {
        case AppKind::Jpeg: app = "Jpeg"; break;
        case AppKind::Fft2d: app = "Fft"; break;
        case AppKind::MonteCarlo: app = "Mc"; break;
        case AppKind::Psrs: app = "Psrs"; break;
      }
      return std::string(to_string(info.param.tool)) + "_" + app;
    });

TEST_P(FaultSoak, LossyWireStillMatchesSerialReference) {
  const SoakCombo combo = GetParam();
  std::int64_t total_retransmits = 0;
  for (const std::uint64_t seed : soak_seeds()) {
    for (const auto& plan : soak_plans(seed)) {
      for (const int procs : soak_procs()) {
        const auto out =
            run_and_check(platform_for(combo.app), combo.tool, combo.app, procs, plan, seed + 7);
        total_retransmits += out.transport.retransmits;
        EXPECT_GT(out.injected.frames, 0);
      }
    }
  }
  // 20% drop over a whole app run cannot pass loss-free.
  EXPECT_GT(total_retransmits, 0);
}

TEST_P(FaultSoak, ReplayIsBitIdentical) {
  const SoakCombo combo = GetParam();
  const FaultPlan plan =
      FaultPlan::uniform(0.15, 0.03, 0.05, 0.1, sim::milliseconds(1), 0x50AC);
  const auto a = run_and_check(platform_for(combo.app), combo.tool, combo.app, 2, plan, 11);
  const auto b = run_and_check(platform_for(combo.app), combo.tool, combo.app, 2, plan, 11);
  EXPECT_EQ(a.elapsed.ns, b.elapsed.ns);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.transport, b.transport);
  EXPECT_EQ(a.injected.drops, b.injected.drops);
  EXPECT_EQ(a.injected.corruptions, b.injected.corruptions);
  EXPECT_EQ(a.injected.duplicates, b.injected.duplicates);
}

TEST_P(FaultSoak, ZeroFaultPlanIsByteIdenticalToPlainWire) {
  const SoakCombo combo = GetParam();
  // run_spmd wires a FaultyNetwork only for an enabled plan: a dead plan
  // must reproduce the plain-wire timing to the last bit.
  const double plain = eval::app_time_s(platform_for(combo.app), combo.tool, combo.app, 2);
  const double dead_plan =
      eval::app_time_s(platform_for(combo.app), combo.tool, combo.app, 2, {}, FaultPlan{});
  EXPECT_EQ(plain, dead_plan);
}

}  // namespace
}  // namespace pdc
