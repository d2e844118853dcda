// Cross-module integration and robustness tests: full-width clusters,
// failure modes and run isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mp/api.hpp"
#include "mp/pack.hpp"

namespace pdc {
namespace {

using host::PlatformId;
using mp::ToolKind;

TEST(Integration, FullWidthSp1AllToAll) {
  // The largest configuration in the paper's testbed: 16 SP-1 nodes, every
  // rank exchanging with every other rank simultaneously.
  constexpr int kProcs = 16;
  int received_total = 0;
  auto program = [&received_total, kProcs](mp::Communicator& c) -> sim::Task<void> {
    for (int dst = 0; dst < kProcs; ++dst) {
      if (dst == c.rank()) continue;
      std::vector<std::int32_t> v(256, c.rank());
      co_await c.send(dst, 3, mp::pack_vector(v));
    }
    std::vector<bool> from(kProcs, false);
    for (int i = 1; i < kProcs; ++i) {
      mp::Message m = co_await c.recv(mp::kAnySource, 3);
      EXPECT_FALSE(from[static_cast<std::size_t>(m.src)]);
      from[static_cast<std::size_t>(m.src)] = true;
      EXPECT_EQ(mp::unpack_vector<std::int32_t>(*m.data)[0], m.src);
      ++received_total;
    }
  };
  for (ToolKind tool : mp::all_tools()) {
    received_total = 0;
    mp::run_spmd(PlatformId::Sp1Switch, kProcs, tool, program);
    EXPECT_EQ(received_total, kProcs * (kProcs - 1)) << mp::to_string(tool);
  }
}

TEST(Integration, LostReceiverIsDetectedAsDeadlock) {
  auto program = [](mp::Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      (void)co_await c.recv(1, 42);  // rank 1 never sends
    }
  };
  EXPECT_THROW(mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4, program),
               sim::DeadlockDetected);
}

TEST(Integration, SimulationStateIsolatedBetweenRuns) {
  // Two consecutive worlds must not share clocks, mailboxes or resources.
  auto program = [](mp::Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) co_await c.send(1, 1, mp::make_payload(mp::Bytes(4096)));
    if (c.rank() == 1) (void)co_await c.recv();
  };
  const auto a = mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::Pvm, program);
  const auto b = mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::Pvm, program);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace pdc
