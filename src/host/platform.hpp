// pdceval -- catalogue of the paper's experimental platforms (Section 3.1).
//
// Each PlatformId bundles a CPU model and the parameters of its network
// (one row of data each), calibrated to the paper's environment at NPAC:
//   SunEthernet -- SPARCstation ELC (33 MHz) on shared 10 Mb/s Ethernet
//   SunAtmLan   -- SPARCstation IPX (40 MHz) on 140 Mb/s ATM (FORE, TAXI)
//   SunAtmWan   -- SPARCstation IPX on NYNET OC-3 ATM WAN (Syracuse-Rome)
//   AlphaFddi   -- DEC Alpha (150 MHz) on switched 100 Mb/s FDDI
//   Sp1Switch   -- IBM SP-1 RS/6000-370 (62.5 MHz) on the Allnode crossbar
//   Sp1Ethernet -- IBM SP-1 nodes on the dedicated Ethernet
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "host/cpu_model.hpp"
#include "host/node.hpp"
#include "net/network.hpp"
#include "net/shared_bus.hpp"
#include "net/switched.hpp"
#include "sim/simulation.hpp"

namespace pdc::host {

enum class PlatformId {
  SunEthernet,
  SunAtmLan,
  SunAtmWan,
  AlphaFddi,
  Sp1Switch,
  Sp1Ethernet,
  // Scale-study platforms (ROADMAP item 1): a modern commodity node on
  // three fabric families, sized for up to 4096 ranks. These extend the
  // catalogue without touching the paper's six -- all_platforms() still
  // returns exactly the 1995 field; scale_platforms() returns these.
  ClusterFlat,       ///< single flat 100G crossbar (idealised baseline)
  ClusterFatTree,    ///< 3-level fat-tree, 2:1 oversubscribed uplinks
  ClusterDragonfly,  ///< 64-host groups, per-pair 50G global links
};

[[nodiscard]] const char* to_string(PlatformId id);

struct PlatformSpec {
  PlatformId id;
  std::string name;
  std::int32_t max_nodes;
  CpuModel cpu;
  /// The wire between the nodes: one shared channel or a switched fabric.
  std::variant<net::SharedBusParams, net::SwitchedParams> network;
};

[[nodiscard]] const PlatformSpec& platform_spec(PlatformId id);

/// All platforms, in the paper's order.
[[nodiscard]] const std::vector<PlatformId>& all_platforms();

/// The scale-study platforms (flat / fat-tree / dragonfly at up to 4096
/// ranks), kept out of all_platforms() so the paper's tables stay pinned.
[[nodiscard]] const std::vector<PlatformId>& scale_platforms();

/// A cluster: N identical nodes plus the platform's network, living on one
/// simulation. This is the substrate every tool runtime is built on.
class Cluster {
 public:
  Cluster(sim::Simulation& sim, PlatformId platform, std::int32_t nodes);

  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }
  [[nodiscard]] PlatformId platform() const noexcept { return platform_; }
  [[nodiscard]] const PlatformSpec& spec() const { return platform_spec(platform_); }
  [[nodiscard]] std::int32_t size() const noexcept {
    return static_cast<std::int32_t>(nodes_.size());
  }
  /// The node, created on first touch (a 4096-node cluster running a
  /// 2-rank cell materialises 2 Node objects and their stack resources).
  [[nodiscard]] Node& node(net::NodeId i) {
    auto& slot = nodes_.at(static_cast<std::size_t>(i));
    if (!slot) slot = std::make_unique<Node>(sim_, i, spec().cpu);
    return *slot;
  }
  /// Nodes actually created (O(active) state pins in tests).
  [[nodiscard]] std::size_t active_nodes() const noexcept {
    std::size_t n = 0;
    for (const auto& p : nodes_) n += p != nullptr;
    return n;
  }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }

  /// Detach the platform network so a caller can wrap it in a decorator
  /// (e.g. fault::FaultyNetwork) and hand it back via install_network().
  /// The cluster must not be used for traffic while detached, and any
  /// Runtime must be built *after* the swap (it caches reliability).
  [[nodiscard]] std::unique_ptr<net::Network> take_network() noexcept {
    return std::move(network_);
  }
  void install_network(std::unique_ptr<net::Network> network) noexcept {
    network_ = std::move(network);
  }

 private:
  sim::Simulation& sim_;
  PlatformId platform_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<net::Network> network_;
};

}  // namespace pdc::host
