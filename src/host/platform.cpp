#include "host/platform.hpp"

#include <array>
#include <stdexcept>

namespace pdc::host {

namespace {

// CPU calibration. `copy_mb_s` is the *network-path* copy rate (copy +
// checksum), which is what TCP-era stacks actually achieved -- well below
// raw memcpy. Sources: paper Table 3 fits (see EXPERIMENTS.md) and
// era-typical lmbench/LINPACK figures.
CpuModel sun_elc() {
  return {.name = "SPARCstation-ELC",
          .clock_mhz = 33,
          .mflops = 5.5,
          .copy_mb_s = 8.0,
          .os_crossing = sim::microseconds(250)};
}
CpuModel sun_ipx() {
  return {.name = "SPARCstation-IPX",
          .clock_mhz = 40,
          .mflops = 7.0,
          .copy_mb_s = 16.0,
          .os_crossing = sim::microseconds(200)};
}
CpuModel alpha_axp() {
  return {.name = "DEC-Alpha-AXP",
          .clock_mhz = 150,
          .mflops = 40.0,
          .copy_mb_s = 45.0,
          .os_crossing = sim::microseconds(60)};
}
CpuModel rs6000_370() {
  return {.name = "RS6000-370",
          .clock_mhz = 62.5,
          .mflops = 22.0,
          .copy_mb_s = 30.0,
          .os_crossing = sim::microseconds(120)};
}

// The scale-study node: a contemporary commodity server. `copy_mb_s` is
// again the network-path copy rate (copy + checksum), far below streaming
// memcpy, matching kernel-bypass-free stacks.
CpuModel cluster_node() {
  return {.name = "Xeon-2.4GHz",
          .clock_mhz = 2400,
          .mflops = 20000.0,
          .copy_mb_s = 6000.0,
          .os_crossing = sim::microseconds(2)};
}

// Network calibration. Every switched wire is an edge (line rate, switch
// latency, propagation, access overhead, framing) around a fabric core;
// the ATM pair and the three scale fabrics each share one edge.
net::SwitchedParams sun_atm(sim::Duration propagation, net::FabricCore core) {
  return {.line_rate_bps = 140e6,  // TAXI interface
          .switch_latency = sim::microseconds(20),
          .propagation = propagation,
          .access_overhead = sim::microseconds(120),
          .cell_payload = 48,
          .cell_total = 53,
          .core = core};
}
net::SwitchedParams cluster_fabric(net::FabricCore core) {
  return {.line_rate_bps = 100e9,
          .switch_latency = sim::microseconds(1),
          .propagation = sim::microseconds(1),
          .access_overhead = sim::microseconds(2),
          .frame_payload = 4096,
          .frame_overhead_bytes = 48,
          .core = core};
}

constexpr std::int32_t kScaleMaxNodes = 4096;

const std::array<PlatformSpec, 9> kSpecs = {{
    // Shared 10 Mb/s Ethernet: the SharedBusParams defaults.
    {PlatformId::SunEthernet, "SUN/Ethernet", 8, sun_elc(), net::SharedBusParams{}},
    {PlatformId::SunAtmLan, "SUN/ATM-LAN", 4, sun_ipx(),
     sun_atm(sim::microseconds(5), net::Crossbar{})},
    // Half the SUNs at each site (Syracuse <-> Rome NY); the OC-3 trunk's
    // rate is effective, after SONET/cell tax and sharing.
    {PlatformId::SunAtmWan, "SUN/ATM-WAN(NYNET)", 4, sun_ipx(),
     sun_atm(sim::microseconds(320), net::Trunk{.rate_bps = 90e6})},
    {PlatformId::AlphaFddi, "ALPHA/FDDI", 8, alpha_axp(),
     net::SwitchedParams{.line_rate_bps = 100e6,
                         .switch_latency = sim::microseconds(15),
                         .propagation = sim::microseconds(5),
                         .access_overhead = sim::microseconds(80),  // token + driver
                         .frame_payload = 4352,                     // FDDI MTU
                         .frame_overhead_bytes = 28}},
    // Allnode crossbar, ~32 MB/s per link.
    {PlatformId::Sp1Switch, "IBM-SP1(Switch)", 16, rs6000_370(),
     net::SwitchedParams{.line_rate_bps = 256e6,
                         .switch_latency = sim::microseconds(2),
                         .propagation = sim::microseconds(1),
                         .access_overhead = sim::microseconds(60),
                         .frame_payload = 8192,
                         .frame_overhead_bytes = 16}},
    // Dedicated Ethernet segment, better drivers.
    {PlatformId::Sp1Ethernet, "IBM-SP1(Ethernet)", 16, rs6000_370(),
     net::SharedBusParams{.per_frame_gap = sim::microseconds(60)}},
    // Idealised flat crossbar at modern rates: the baseline the
    // hierarchical fabrics are compared against.
    {PlatformId::ClusterFlat, "CLUSTER/Flat", kScaleMaxNodes, cluster_node(),
     cluster_fabric(net::Crossbar{})},
    // Capacity 16^3 = 4096; 8 uplink planes at line rate -> 2:1
    // oversubscription per tier.
    {PlatformId::ClusterFatTree, "CLUSTER/FatTree", kScaleMaxNodes, cluster_node(),
     cluster_fabric(
         net::FatTree{.arity = 16, .levels = 3, .uplinks = 8, .uplink_rate_bps = 100e9})},
    // 2 global cables per ordered group pair at half line rate.
    {PlatformId::ClusterDragonfly, "CLUSTER/Dragonfly", kScaleMaxNodes, cluster_node(),
     cluster_fabric(net::Dragonfly{.group_size = 64,
                                   .links_per_pair = 2,
                                   .global_rate_bps = 50e9,
                                   .global_latency = sim::microseconds(3)})},
}};

/// Builds the network a platform's parameters describe.
struct MakeNetwork {
  sim::Simulation& sim;
  std::int32_t nodes;

  std::unique_ptr<net::Network> operator()(const net::SharedBusParams& p) const {
    return std::make_unique<net::SharedBusNetwork>(sim, p);
  }
  std::unique_ptr<net::Network> operator()(const net::SwitchedParams& p) const {
    return std::make_unique<net::SwitchedNetwork>(sim, nodes, p);
  }
};

}  // namespace

const char* to_string(PlatformId id) { return platform_spec(id).name.c_str(); }

const PlatformSpec& platform_spec(PlatformId id) {
  for (const auto& s : kSpecs) {
    if (s.id == id) return s;
  }
  throw std::logic_error("platform_spec: unknown platform");
}

const std::vector<PlatformId>& all_platforms() {
  static const std::vector<PlatformId> kAll = {
      PlatformId::SunEthernet, PlatformId::SunAtmLan, PlatformId::SunAtmWan,
      PlatformId::AlphaFddi,   PlatformId::Sp1Switch, PlatformId::Sp1Ethernet,
  };
  return kAll;
}

const std::vector<PlatformId>& scale_platforms() {
  static const std::vector<PlatformId> kScale = {
      PlatformId::ClusterFlat,
      PlatformId::ClusterFatTree,
      PlatformId::ClusterDragonfly,
  };
  return kScale;
}

Cluster::Cluster(sim::Simulation& sim, PlatformId platform, std::int32_t nodes)
    : sim_(sim), platform_(platform) {
  const auto& spec = platform_spec(platform);
  if (nodes <= 0) throw std::invalid_argument("Cluster: need at least one node");
  if (nodes > spec.max_nodes) {
    throw std::invalid_argument("Cluster: platform " + spec.name + " has at most " +
                                std::to_string(spec.max_nodes) + " nodes");
  }
  // Node objects (and their stack resources) are created on first touch by
  // node(); construction just sizes the slot table so large-P clusters stay
  // O(active ranks) in memory.
  nodes_.resize(static_cast<std::size_t>(nodes));
  network_ = std::visit(MakeNetwork{sim, nodes}, spec.network);
}

}  // namespace pdc::host
