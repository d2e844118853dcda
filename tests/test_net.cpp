// Unit tests for network models and platform/host substrates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <variant>
#include <vector>

#include "fault/faulty_network.hpp"
#include "host/platform.hpp"
#include "net/shared_bus.hpp"
#include "net/switched.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "test_support.hpp"

namespace pdc {
namespace {

using host::PlatformId;

TEST(CpuModel, CostScalesWithRates) {
  const auto& alpha = host::platform_spec(PlatformId::AlphaFddi).cpu;
  const auto& elc = host::platform_spec(PlatformId::SunEthernet).cpu;
  // 1 Mflop on a 40 Mflop/s Alpha = 25 ms.
  EXPECT_NEAR(alpha.compute(1e6).millis(), 25.0, 1e-6);
  // The ELC is slower than the Alpha at everything.
  EXPECT_GT(elc.compute(1e6), alpha.compute(1e6));
  EXPECT_GT(elc.copy(1 << 20), alpha.copy(1 << 20));
  EXPECT_GT(elc.os_crossing, alpha.os_crossing);
  EXPECT_GT(elc.int_ops(1e6), alpha.int_ops(1e6));
}

TEST(SharedBus, SerializationMatchesLineRate) {
  sim::Simulation simu;
  net::SharedBusParams p;
  p.per_frame_gap = sim::Duration::zero();
  p.propagation = sim::Duration::zero();
  p.frame_overhead_bytes = 0;
  net::SharedBusNetwork bus(simu, p);
  // 10 Mb/s => 1250 bytes per ms.
  const auto t = bus.transfer(0, 1, 1250);
  EXPECT_NEAR((t - sim::TimePoint::origin()).millis(), 1.0, 1e-9);
}

TEST(SharedBus, ConcurrentSendersSerialize) {
  sim::Simulation simu;
  net::SharedBusParams p;
  net::SharedBusNetwork bus(simu, p);
  const auto t1 = bus.transfer(0, 1, 10000);
  const auto t2 = bus.transfer(2, 3, 10000);
  // Second transfer cannot start before the first finishes (shared medium).
  EXPECT_GE((t2 - t1).ns, ((t1 - sim::TimePoint::origin()) - p.propagation).ns);
}

TEST(SharedBus, ZeroByteMessageStillCostsAFrame) {
  sim::Simulation simu;
  net::SharedBusNetwork bus(simu, {});
  const auto t = bus.transfer(0, 1, 0);
  EXPECT_GT(t, sim::TimePoint::origin());
  EXPECT_GT(bus.wire_bytes(0), 0);
}

TEST(SharedBus, NegativeBytesClampToOneFrame) {
  // Regression: a negative byte count used to flow straight into
  // `bytes + frames * overhead`, producing negative wire bytes -- i.e. a
  // serialization-time *credit*. It must cost exactly an empty frame.
  sim::Simulation simu;
  net::SharedBusNetwork bus(simu, {});
  EXPECT_EQ(bus.wire_bytes(-1), bus.wire_bytes(0));
  EXPECT_EQ(bus.wire_bytes(-1'000'000), bus.wire_bytes(0));
  EXPECT_GT(bus.wire_bytes(-1), 0);
}

TEST(Switched, NegativeBytesClampToOneFrame) {
  sim::Simulation simu;
  net::SwitchedNetwork fddi(simu, 4, {});
  EXPECT_EQ(fddi.wire_bytes(-1), fddi.wire_bytes(0));
  EXPECT_EQ(fddi.wire_bytes(-1'000'000), fddi.wire_bytes(0));
  EXPECT_GT(fddi.wire_bytes(-1), 0);

  // ATM cell path: negative counts pad up to a single cell, like zero.
  net::SwitchedParams atm_p;
  atm_p.cell_payload = 48;
  atm_p.cell_total = 53;
  net::SwitchedNetwork atm(simu, 4, atm_p);
  EXPECT_EQ(atm.wire_bytes(-1), atm.wire_bytes(0));
  EXPECT_EQ(atm.wire_bytes(-1'000'000), 53);
}

TEST(SharedBus, ChunkedFramesClosedFormMatchesPerChunkLoop) {
  // The closed form replaced an O(chunks) loop; pin it against the
  // straightforward per-chunk accumulation across awkward combinations
  // (chunk < frame, chunk == frame, chunk straddling frames, ragged tails).
  sim::Simulation simu;
  for (std::int64_t frame_payload : {53, 512, 1500}) {
    net::SharedBusParams params;
    params.frame_payload = frame_payload;
    net::SharedBusNetwork bus(simu, params);
    for (std::int64_t chunk : {1, 7, 53, 512, 1000, 4096}) {
      net::ChunkProtocol protocol;
      protocol.chunk_bytes = chunk;
      for (std::int64_t bytes :
           {std::int64_t{0}, std::int64_t{1}, chunk - 1, chunk, chunk + 1, 3 * chunk,
            3 * chunk + 17, std::int64_t{100000}}) {
        if (bytes < 0) continue;
        std::int64_t loop_frames = 0;
        if (bytes <= 0) {
          loop_frames = bus.frames_for(0);
        } else {
          for (std::int64_t off = 0; off < bytes; off += chunk) {
            loop_frames += bus.frames_for(std::min(chunk, bytes - off));
          }
        }
        EXPECT_EQ(bus.chunked_frames(bytes, protocol), loop_frames)
            << "frame=" << frame_payload << " chunk=" << chunk << " bytes=" << bytes;
      }
    }
  }
}

TEST(Switched, DistinctPairsRunInParallel) {
  sim::Simulation simu;
  net::SwitchedParams p;
  net::SwitchedNetwork sw(simu, 4, p);
  const auto t1 = sw.transfer(0, 1, 100000);
  const auto t2 = sw.transfer(2, 3, 100000);
  // Same size, disjoint ports: identical arrival times.
  EXPECT_EQ(t1, t2);
}

TEST(Switched, ManyToOneQueuesOnReceiverPort) {
  sim::Simulation simu;
  net::SwitchedParams p;
  net::SwitchedNetwork sw(simu, 4, p);
  const auto t1 = sw.transfer(1, 0, 100000);
  const auto t2 = sw.transfer(2, 0, 100000);
  const auto t3 = sw.transfer(3, 0, 100000);
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
}

TEST(Switched, SameSourceSerializesOnTxPort) {
  sim::Simulation simu;
  net::SwitchedParams p;
  net::SwitchedNetwork sw(simu, 4, p);
  const auto t1 = sw.transfer(0, 1, 100000);
  const auto t2 = sw.transfer(0, 2, 100000);
  EXPECT_LT(t1, t2);
}

TEST(Switched, AtmCellTax) {
  sim::Simulation simu;
  net::SwitchedParams p;
  p.cell_payload = 48;
  p.cell_total = 53;
  net::SwitchedNetwork atm(simu, 2, p);
  // 1 byte payload + 8 byte AAL5 trailer -> 1 cell of 53 bytes.
  EXPECT_EQ(atm.wire_bytes(1), 53);
  // 40 bytes + trailer -> exactly one cell; 41 bytes -> two cells.
  EXPECT_EQ(atm.wire_bytes(40), 53);
  EXPECT_EQ(atm.wire_bytes(41), 2 * 53);
  // Large messages: ~10.4% overhead.
  EXPECT_NEAR(static_cast<double>(atm.wire_bytes(65536)) / 65536.0, 53.0 / 48.0, 0.01);
}

TEST(Switched, TrunkAddsCrossSiteCost) {
  sim::Simulation simu;
  net::SwitchedParams p;
  p.core = net::Trunk{.rate_bps = 155e6};
  net::SwitchedNetwork wan(simu, 4, p);  // nodes {0, 1} | {2, 3}

  sim::Simulation simu2;
  net::SwitchedParams p2 = p;
  p2.core = net::Crossbar{};
  net::SwitchedNetwork lan(simu2, 4, p2);

  const auto same_site = lan.transfer(0, 1, 65536);
  const auto cross_site = wan.transfer(0, 2, 65536);
  EXPECT_GT(cross_site, same_site);
  // Within a site, the WAN behaves like the LAN.
  EXPECT_EQ(wan.transfer(0, 1, 65536), lan.transfer(0, 1, 65536));
}

TEST(Switched, RejectsBadNodeIds) {
  sim::Simulation simu;
  net::SwitchedNetwork sw(simu, 2, {});
  EXPECT_THROW(sw.transfer(0, 5, 100), std::out_of_range);
  EXPECT_THROW(sw.transfer(-1, 0, 100), std::out_of_range);
}

// The scale fabrics' shared edge (100G links, 1/1/2 us, 4096/48 framing)
// around `core`.
net::SwitchedParams cluster_edge(net::FabricCore core) {
  auto p = std::get<net::SwitchedParams>(host::platform_spec(PlatformId::ClusterFlat).network);
  p.core = core;
  return p;
}

// A platform's own switched parameters.
net::SwitchedParams platform_fabric(PlatformId id) {
  return std::get<net::SwitchedParams>(host::platform_spec(id).network);
}

// A small fat-tree that is easy to reason about: 4 hosts per edge switch,
// two tiers (capacity 16), 2 uplink planes (2:1 oversubscribed).
net::SwitchedParams small_fat_tree() {
  return cluster_edge(net::FatTree{.arity = 4, .levels = 2, .uplinks = 2});
}

TEST(FatTree, MeetLevelAndPathLinks) {
  // The route, read off the resources one transfer creates in a fresh
  // fabric: its tx and rx ports plus 2 cables per tier climbed (one up,
  // one down).
  const auto cables_crossed = [](net::NodeId src, net::NodeId dst) {
    sim::Simulation simu;
    net::SwitchedNetwork ft(simu, 64, cluster_edge(net::FatTree{.arity = 4, .levels = 3}));
    (void)ft.transfer(src, dst, 4096);
    return ft.active_resources() - 2u;
  };
  EXPECT_EQ(cables_crossed(0, 1), 0u);   // same edge switch
  EXPECT_EQ(cables_crossed(0, 5), 2u);   // adjacent edge switches
  EXPECT_EQ(cables_crossed(0, 17), 4u);  // different level-2 subtrees
  EXPECT_EQ(cables_crossed(3, 3), 0u);
}

TEST(FatTree, DistinctEdgePairsRunInParallel) {
  sim::Simulation simu;
  net::SwitchedNetwork ft(simu, 16, small_fat_tree());
  // Both pairs stay inside their own edge switch: identical arrival times.
  const auto t1 = ft.transfer(0, 1, 1 << 20);
  const auto t2 = ft.transfer(4, 5, 1 << 20);
  EXPECT_EQ(t1, t2);
}

TEST(FatTree, CrossTierTransferCostsMore) {
  sim::Simulation simu;
  net::SwitchedNetwork ft(simu, 16, small_fat_tree());
  const auto same_edge = ft.transfer(0, 1, 1 << 20);
  sim::Simulation simu2;
  net::SwitchedNetwork ft2(simu2, 16, small_fat_tree());
  const auto cross = ft2.transfer(0, 15, 1 << 20);
  EXPECT_GT(cross, same_edge);
}

TEST(FatTree, SharedUplinkPlaneSerializes) {
  // D-mod-k: both destinations hash onto plane 0, so the two flows out of
  // edge switch 0 share one uplink cable and must serialize there...
  sim::Simulation simu;
  net::SwitchedNetwork ft(simu, 16, small_fat_tree());
  (void)ft.transfer(0, 8, 1 << 20);
  const auto contended = ft.transfer(1, 12, 1 << 20);  // 8 % 2 == 12 % 2 == 0
  // ...while a destination on the other plane rides a disjoint cable.
  sim::Simulation simu2;
  net::SwitchedNetwork ft2(simu2, 16, small_fat_tree());
  (void)ft2.transfer(0, 8, 1 << 20);
  const auto disjoint = ft2.transfer(1, 13, 1 << 20);  // 13 % 2 == 1
  EXPECT_GT(contended, disjoint);
}

TEST(FatTree, RoutingIsDeterministic) {
  // Same construction, same call sequence -> byte-identical arrival times.
  auto run = [] {
    sim::Simulation simu;
    net::SwitchedNetwork ft(simu, 16, small_fat_tree());
    std::vector<std::int64_t> arrivals;
    for (int src = 0; src < 16; ++src) {
      arrivals.push_back(ft.transfer(src, (src * 7 + 3) % 16, 4096 * (src + 1)).ns);
    }
    return arrivals;
  };
  EXPECT_EQ(run(), run());
}

TEST(FatTree, ResourcesAreCreatedOnFirstUse) {
  sim::Simulation simu;
  net::SwitchedNetwork ft(simu, 4096, platform_fabric(PlatformId::ClusterFatTree));
  EXPECT_EQ(ft.active_resources(), 0u);
  (void)ft.transfer(0, 4095, 4096);
  // One tx + one rx port plus the climbed/descended cables -- far from
  // the thousands a fully-materialised fabric would hold.
  EXPECT_LE(ft.active_resources(), 2u + 2u * 3u);
  EXPECT_GE(ft.active_resources(), 2u);
}

TEST(FatTree, RejectsBadIdsAndOverCapacity) {
  sim::Simulation simu;
  net::SwitchedNetwork ft(simu, 16, small_fat_tree());
  EXPECT_THROW(ft.transfer(0, 16, 100), std::out_of_range);
  EXPECT_THROW(ft.transfer(-1, 0, 100), std::out_of_range);
  // Capacity with arity 4, levels 2 is 16 hosts.
  EXPECT_THROW(net::SwitchedNetwork(simu, 17, small_fat_tree()),
               std::invalid_argument);
}

TEST(FatTree, NegativeBytesClampToOneFrame) {
  sim::Simulation simu;
  net::SwitchedNetwork ft(simu, 16, small_fat_tree());
  EXPECT_EQ(ft.wire_bytes(-1), ft.wire_bytes(0));
  EXPECT_GT(ft.wire_bytes(-1), 0);
}

net::SwitchedParams small_dragonfly() {
  return cluster_edge(net::Dragonfly{.group_size = 4, .links_per_pair = 1});
}

TEST(Dragonfly, IntraGroupBeatsInterGroup) {
  sim::Simulation simu;
  net::SwitchedNetwork df(simu, 12, small_dragonfly());
  const auto local = df.transfer(0, 1, 1 << 20);
  sim::Simulation simu2;
  net::SwitchedNetwork df2(simu2, 12, small_dragonfly());
  const auto global = df2.transfer(0, 4, 1 << 20);
  EXPECT_GT(global, local);
}

TEST(Dragonfly, SharedGlobalCableSerializes) {
  // Two flows between the same group pair share the single global cable...
  sim::Simulation simu;
  net::SwitchedNetwork df(simu, 12, small_dragonfly());
  (void)df.transfer(0, 4, 1 << 20);
  const auto contended = df.transfer(1, 5, 1 << 20);
  // ...flows toward different groups ride disjoint cables.
  sim::Simulation simu2;
  net::SwitchedNetwork df2(simu2, 12, small_dragonfly());
  (void)df2.transfer(0, 4, 1 << 20);
  const auto disjoint = df2.transfer(1, 9, 1 << 20);
  EXPECT_GT(contended, disjoint);
}

TEST(Dragonfly, ResourcesAreCreatedOnFirstUse) {
  sim::Simulation simu;
  net::SwitchedNetwork df(simu, 4096, platform_fabric(PlatformId::ClusterDragonfly));
  EXPECT_EQ(df.active_resources(), 0u);
  (void)df.transfer(0, 4095, 4096);
  EXPECT_LE(df.active_resources(), 3u);  // tx + rx + one global cable
}

TEST(Dragonfly, RejectsBadIds) {
  sim::Simulation simu;
  net::SwitchedNetwork df(simu, 12, small_dragonfly());
  EXPECT_THROW(df.transfer(0, 12, 100), std::out_of_range);
  EXPECT_THROW(df.transfer(-1, 0, 100), std::out_of_range);
  EXPECT_THROW(net::SwitchedNetwork(simu, 12, cluster_edge(net::Dragonfly{.group_size = 0})),
               std::invalid_argument);
}

TEST(Switched, PlacementGrainIsTheFabricsPodOrGroup) {
  // The scheduler's placer reads this; a fault decorator must not hide it.
  const auto grain = [](PlatformId id) {
    sim::Simulation simu;
    host::Cluster c(simu, id, 256);
    return c.network().placement_grain();
  };
  EXPECT_EQ(grain(PlatformId::ClusterFlat), 1);
  EXPECT_EQ(grain(PlatformId::ClusterFatTree), 16);
  EXPECT_EQ(grain(PlatformId::ClusterDragonfly), 64);
  sim::Simulation simu;
  fault::FaultyNetwork faulty(
      simu, std::make_unique<net::SwitchedNetwork>(simu, 16, small_fat_tree()), {});
  EXPECT_EQ(faulty.placement_grain(), 4);
}

// Regression for byte-count arithmetic at >= 2 GiB per transfer: framing
// math must stay in 64-bit (a 32-bit frames * overhead product would wrap
// past ~2^31 and could even go negative).
TEST(WireBytes, SurvivesMultiGigabyteTransfers) {
  sim::Simulation simu;
  const std::int64_t big = std::int64_t{3} << 30;  // 3 GiB
  {
    net::SwitchedNetwork ft(simu, 16, small_fat_tree());
    const std::int64_t frames = (big + 4096 - 1) / 4096;
    EXPECT_EQ(ft.wire_bytes(big), big + frames * 48);
    EXPECT_GT(ft.wire_bytes(big), big);
  }
  {
    net::SwitchedParams p;  // FDDI-style framing
    net::SwitchedNetwork sw(simu, 4, p);
    const std::int64_t frames = (big + p.frame_payload - 1) / p.frame_payload;
    EXPECT_EQ(sw.wire_bytes(big), big + frames * p.frame_overhead_bytes);
  }
  {
    net::SwitchedParams p;
    p.cell_payload = 48;
    p.cell_total = 53;
    net::SwitchedNetwork atm(simu, 4, p);
    const std::int64_t cells = (big + 8 + 47) / 48;
    EXPECT_EQ(atm.wire_bytes(big), cells * 53);  // ~3.54e9: past int32 range
    EXPECT_GT(atm.wire_bytes(big), std::int64_t{std::numeric_limits<std::int32_t>::max()});
  }
  {
    net::SharedBusParams p;
    net::SharedBusNetwork bus(simu, p);
    const std::int64_t frames = (big + p.frame_payload - 1) / p.frame_payload;
    EXPECT_EQ(bus.wire_bytes(big), big + frames * p.frame_overhead_bytes);
  }
}

// Every platform's wire, pinned directly. A Cluster at the platform's
// largest size takes a seeded stream of 256 transfers issued over simulated
// time, so ports, cables and the bus see idle and backlogged arrivals
// alike; the count and FNV-1a of the arrival times must not move. Sizes
// cover the empty message, the ATM cell edge (40/41 B) and 64 KiB, and
// every other transfer rides transfer_chunked, which the two buses price
// as fragments plus acks.
TEST(NetGolden, EveryPlatformArrivalStream) {
  struct Pin {
    PlatformId id;
    std::size_t count;
    std::uint64_t digest;
  };
  static constexpr Pin kPins[] = {
      {PlatformId::SunEthernet, 256, 0xfb2ae4e2ca5eb76aULL},
      {PlatformId::SunAtmLan, 256, 0xe8c682e08e00781bULL},
      {PlatformId::SunAtmWan, 256, 0x69c76185bc12f330ULL},
      {PlatformId::AlphaFddi, 256, 0xe78574b7e33840f3ULL},
      {PlatformId::Sp1Switch, 256, 0x62e79a2b39684c73ULL},
      {PlatformId::Sp1Ethernet, 256, 0x33acff8f8409a498ULL},
      {PlatformId::ClusterFlat, 256, 0x9282a0a0c76ac9c9ULL},
      {PlatformId::ClusterFatTree, 256, 0x6765a821bed3b340ULL},
      {PlatformId::ClusterDragonfly, 256, 0xbde79e6e45b83c6aULL},
  };
  static constexpr std::int64_t kSizes[] = {0, 1, 40, 41, 1000, 4096, 9000, 65536};
  for (const Pin& pin : kPins) {
    sim::Simulation simu;
    const std::int32_t n = host::platform_spec(pin.id).max_nodes;
    host::Cluster cluster(simu, pin.id, n);
    net::Network& wire = cluster.network();
    sim::Rng rng(sim::named_stream(1, "test.net.arrivals"));
    std::vector<std::int64_t> arrivals;
    sim::TimePoint at = sim::TimePoint::origin();
    for (int i = 0; i < 256; ++i) {
      const std::int32_t src = rng.uniform_i32(0, n - 1);
      const std::int32_t dst = (src + rng.uniform_i32(1, n - 1)) % n;
      const std::int64_t bytes = kSizes[rng.uniform(0, std::size(kSizes) - 1)];
      at = at + sim::microseconds(static_cast<std::int64_t>(rng.uniform(0, 400)));
      simu.schedule_at(at, [&wire, &arrivals, src, dst, bytes, chunked = i % 2 == 1] {
        arrivals.push_back((chunked ? wire.transfer_chunked(src, dst, bytes, {})
                                    : wire.transfer(src, dst, bytes))
                               .ns);
      });
    }
    simu.run();
    EXPECT_EQ(arrivals.size(), pin.count) << host::to_string(pin.id);
    EXPECT_EQ(test::fnv1a(test::kFnvBasis, std::as_bytes(std::span(arrivals))), pin.digest)
        << host::to_string(pin.id);
  }
}

TEST(Platform, ScaleCatalogue) {
  // The paper's field is untouched; the scale platforms live alongside it.
  EXPECT_EQ(host::all_platforms().size(), 6u);
  EXPECT_EQ(host::scale_platforms().size(), 3u);
  for (const auto id : host::scale_platforms()) {
    EXPECT_EQ(host::platform_spec(id).max_nodes, 4096);
    EXPECT_GT(host::platform_spec(id).cpu.clock_mhz, 1000.0);
  }
  EXPECT_STREQ(host::to_string(PlatformId::ClusterFatTree), "CLUSTER/FatTree");
}

TEST(Platform, ClusterNodesAreLazy) {
  sim::Simulation simu;
  host::Cluster c(simu, PlatformId::ClusterFlat, 1024);
  EXPECT_EQ(c.size(), 1024);
  EXPECT_EQ(c.active_nodes(), 0u);
  EXPECT_EQ(c.node(5).id(), 5);
  EXPECT_EQ(c.node(1023).id(), 1023);
  EXPECT_EQ(c.active_nodes(), 2u);
  EXPECT_THROW(host::Cluster(simu, PlatformId::ClusterFlat, 4097), std::invalid_argument);
}

TEST(Platform, CatalogueMatchesPaper) {
  EXPECT_EQ(host::all_platforms().size(), 6u);
  EXPECT_STREQ(host::to_string(PlatformId::SunEthernet), "SUN/Ethernet");
  EXPECT_STREQ(host::to_string(PlatformId::SunAtmWan), "SUN/ATM-WAN(NYNET)");
  EXPECT_EQ(host::platform_spec(PlatformId::AlphaFddi).max_nodes, 8);
  EXPECT_EQ(host::platform_spec(PlatformId::Sp1Switch).max_nodes, 16);
  EXPECT_DOUBLE_EQ(host::platform_spec(PlatformId::AlphaFddi).cpu.clock_mhz, 150.0);
}

TEST(Platform, ClusterConstruction) {
  sim::Simulation simu;
  host::Cluster c(simu, PlatformId::AlphaFddi, 8);
  EXPECT_EQ(c.size(), 8);
  EXPECT_EQ(c.node(3).id(), 3);
  EXPECT_GT(c.network().line_rate_bps(), 0.0);
  EXPECT_THROW(host::Cluster(simu, PlatformId::SunAtmLan, 9), std::invalid_argument);
  EXPECT_THROW(host::Cluster(simu, PlatformId::SunAtmLan, 0), std::invalid_argument);
}

TEST(Platform, NetworkRelativeSpeeds) {
  // One 64 KB transfer, idle network: ATM LAN beats Ethernet by ~an order
  // of magnitude; the SP-1 crossbar is the fastest wire.
  auto one_transfer = [](PlatformId id) {
    sim::Simulation simu;
    host::Cluster c(simu, id, 4);
    return (c.network().transfer(0, 1, 65536) - sim::TimePoint::origin()).seconds();
  };
  const double eth = one_transfer(PlatformId::SunEthernet);
  const double atm = one_transfer(PlatformId::SunAtmLan);
  const double fddi = one_transfer(PlatformId::AlphaFddi);
  const double sp1 = one_transfer(PlatformId::Sp1Switch);
  EXPECT_GT(eth, 5 * atm);
  EXPECT_GT(eth, 5 * fddi);
  EXPECT_LT(sp1, atm);
  EXPECT_LT(sp1, fddi);
}

}  // namespace
}  // namespace pdc
