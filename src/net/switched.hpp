// pdceval -- switched point-to-point network: every fabric but the shared
// bus (FDDI segments, ATM LAN, the NYNET ATM WAN, the SP-1 Allnode crossbar,
// and the scale study's flat, fat-tree and dragonfly clusters).
//
// Each node owns a full-duplex link: a tx port resource and an rx port
// resource. A transfer serialises on the sender's tx port, its head crosses
// the edge switch after one switch latency, then crosses the fabric core's
// cables in route order, and finally occupies the receiver's rx port
// cut-through style for as long as the slowest stage keeps streaming, plus
// propagation. Distinct node pairs proceed in parallel; many-to-one traffic
// queues on the destination rx port, as on real switches.
//
// The fabrics differ only in the cables a route crosses, so the core is
// data (`SwitchedParams::core`):
//   Crossbar  -- none: only the endpoint ports ever contend.
//   Trunk     -- one shared full-duplex trunk between the two halves of the
//                cluster (node id < max(nodes/2, 1) vs the rest).
//   FatTree   -- `levels` switch tiers; a level-1 (edge) switch serves
//                `arity` hosts and each switch has `uplinks` cables toward
//                its parent tier (arity:uplinks oversubscription). D-mod-k
//                routing: a stream climbs to the lowest common switch on
//                plane (dst mod uplinks) and descends on the same plane.
//   Dragonfly -- groups of `group_size` hosts behind one logical crossbar;
//                an inter-group stream crosses one of `links_per_pair`
//                global cables of its ordered group pair, chosen as
//                (dst mod links_per_pair), and pays `global_latency` on it.
// Routing is deterministic, so the same (src, dst) pair follows the same
// cables every run and hot planes or group pairs queue on shared cables.
//
// Optional cell segmentation (ATM AAL5: 48-byte payload in 53-byte cells)
// replaces frame framing. Ports and cables are created on first use, so a
// 4096-node cluster running a 2-rank cell holds O(active) resources.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "net/network.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace pdc::net {

/// No shared cables: endpoint ports are the only contention points.
struct Crossbar {};

/// One shared trunk between the two halves of the cluster (NYNET's OC-3
/// uplink between Syracuse and Rome).
struct Trunk {
  double rate_bps{155e6};
};

/// Multi-level fat tree; capacity is arity^levels hosts.
struct FatTree {
  std::int32_t arity{16};          ///< hosts (or child switches) per switch
  std::int32_t levels{3};          ///< switch tiers above the hosts
  std::int32_t uplinks{8};         ///< uplink planes per switch
  double uplink_rate_bps{100e9};   ///< each inter-switch cable
};

/// Dragonfly: all-to-all global cables between groups of hosts.
struct Dragonfly {
  std::int32_t group_size{64};     ///< hosts per group
  std::int32_t links_per_pair{2};  ///< global cables per ordered group pair
  double global_rate_bps{50e9};    ///< each global cable
  sim::Duration global_latency{sim::microseconds(3)};  ///< long-haul optical hop
};

using FabricCore = std::variant<Crossbar, Trunk, FatTree, Dragonfly>;

struct SwitchedParams {
  double line_rate_bps{100e6};
  sim::Duration switch_latency{sim::microseconds(10)};
  sim::Duration propagation{sim::microseconds(5)};
  /// Per-packet/token/cell-burst access overhead charged once per transfer.
  sim::Duration access_overhead{sim::microseconds(50)};
  /// If >0, payload is carried in cells of `cell_payload` bytes costing
  /// `cell_total` bytes on the wire (ATM: 48/53). If 0, framing adds
  /// `frame_overhead_bytes` per `frame_payload` chunk.
  std::int64_t cell_payload{0};
  std::int64_t cell_total{0};
  std::int64_t frame_payload{4352};       ///< FDDI MTU default
  std::int64_t frame_overhead_bytes{28};
  FabricCore core{};
};

class SwitchedNetwork final : public Network {
 public:
  /// Throws std::invalid_argument for no nodes, a malformed core, or more
  /// nodes than a fat tree holds.
  SwitchedNetwork(sim::Simulation& sim, std::int32_t nodes, SwitchedParams params);

  sim::TimePoint transfer(NodeId src, NodeId dst, std::int64_t bytes) override;
  [[nodiscard]] double line_rate_bps() const noexcept override { return params_.line_rate_bps; }
  [[nodiscard]] std::int64_t wire_bytes(std::int64_t bytes) const noexcept override;

  /// Every transfer pays access overhead on the tx port, the edge switch
  /// latency, and propagation before any byte reaches the destination
  /// (serialization and core cables only add to that), so their sum is a
  /// safe horizon.
  [[nodiscard]] sim::Duration lookahead() const noexcept override {
    return params_.access_overhead + params_.switch_latency + params_.propagation;
  }

  /// The fat tree's leaf pod (`arity`) or the dragonfly's group size.
  [[nodiscard]] std::int32_t placement_grain() const noexcept override;

  /// Ports and cables created so far (O(active) state pins).
  [[nodiscard]] std::size_t active_resources() const noexcept {
    std::size_t n = cables_.size();
    for (const auto& p : tx_) n += p != nullptr;
    for (const auto& p : rx_) n += p != nullptr;
    return n;
  }

 private:
  using Ports = std::vector<std::unique_ptr<sim::SerialResource>>;

  [[nodiscard]] sim::Duration serialization(std::int64_t bytes, double rate_bps) const noexcept;

  sim::Simulation& sim_;
  SwitchedParams params_;
  std::int32_t nodes_;
  std::int32_t far_half_;            ///< trunk: first node of the far half
  std::vector<std::int64_t> span_;   ///< fat tree: span_[l] = arity^l hosts
  Ports tx_;
  Ports rx_;
  std::unordered_map<std::uint64_t, sim::SerialResource> cables_;
};

}  // namespace pdc::net
