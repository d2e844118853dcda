#include "net/switched.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "trace/sink.hpp"

namespace pdc::net {

namespace {

/// The trunk is the only cable of its core.
constexpr std::uint64_t kTrunkKey = 0;

/// Fat-tree cable key: direction (1 bit) | level (15 bits) | switch index
/// (32 bits) | plane (16 bits). Levels stay tiny (<= 15 tiers covers any
/// practical machine) and switch indices fit 32 bits by construction.
[[nodiscard]] std::uint64_t fat_tree_key(bool up, std::int32_t level, std::int64_t sw,
                                         std::int32_t plane) noexcept {
  return (static_cast<std::uint64_t>(up) << 63) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level) & 0x7FFFu) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sw)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(plane) & 0xFFFFu);
}

/// Dragonfly global-cable key: source group (24 bits) | dest group (24
/// bits) | cable index (16 bits). Group counts stay far below 2^24 at any
/// plausible P.
[[nodiscard]] std::uint64_t global_key(std::int32_t gs, std::int32_t gd,
                                       std::int32_t cable) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gs)) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gd)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cable) & 0xFFFFu);
}

/// The resource in `slot`, created on first use.
[[nodiscard]] sim::SerialResource& lazy(std::unique_ptr<sim::SerialResource>& slot,
                                        sim::Simulation& sim) {
  if (!slot) slot = std::make_unique<sim::SerialResource>(sim);
  return *slot;
}

}  // namespace

SwitchedNetwork::SwitchedNetwork(sim::Simulation& sim, std::int32_t nodes,
                                 SwitchedParams params)
    : sim_(sim),
      params_(params),
      nodes_(nodes),
      far_half_(std::max(nodes / 2, 1)),
      tx_(static_cast<std::size_t>(std::max(nodes, 1))),
      rx_(static_cast<std::size_t>(std::max(nodes, 1))) {
  if (nodes <= 0) throw std::invalid_argument("SwitchedNetwork: need at least one node");
  if (const auto* ft = std::get_if<FatTree>(&params_.core)) {
    if (ft->arity < 2 || ft->levels < 1 || ft->uplinks < 1) {
      throw std::invalid_argument("SwitchedNetwork: fat tree needs arity >= 2, levels >= 1, "
                                  "uplinks >= 1");
    }
    span_.resize(static_cast<std::size_t>(ft->levels) + 1);
    span_[0] = 1;
    for (std::size_t l = 1; l < span_.size(); ++l) span_[l] = span_[l - 1] * ft->arity;
    if (nodes > span_.back()) {
      throw std::invalid_argument("SwitchedNetwork: " + std::to_string(nodes) +
                                  " nodes exceed fat-tree capacity arity^levels = " +
                                  std::to_string(span_.back()));
    }
  }
  if (const auto* df = std::get_if<Dragonfly>(&params_.core)) {
    if (df->group_size < 1 || df->links_per_pair < 1) {
      throw std::invalid_argument("SwitchedNetwork: dragonfly group size and global links "
                                  "must be >= 1");
    }
  }
}

std::int64_t SwitchedNetwork::wire_bytes(std::int64_t bytes) const noexcept {
  // Clamp to an empty payload: a non-positive byte count still occupies one
  // frame/cell on the wire, and must never yield negative wire bytes (a
  // negative count would *credit* serialization time).
  if (bytes < 0) bytes = 0;
  if (params_.cell_payload > 0) {
    // AAL5-style: 8-byte trailer, then pad to a whole number of cells.
    const std::int64_t payload = bytes + 8;
    const std::int64_t cells =
        (payload + params_.cell_payload - 1) / params_.cell_payload;
    return (cells > 0 ? cells : 1) * params_.cell_total;
  }
  const std::int64_t frames =
      bytes <= 0 ? 1 : (bytes + params_.frame_payload - 1) / params_.frame_payload;
  return bytes + frames * params_.frame_overhead_bytes;
}

sim::Duration SwitchedNetwork::serialization(std::int64_t bytes, double rate_bps) const noexcept {
  return sim::from_seconds(static_cast<double>(wire_bytes(bytes)) * 8.0 / rate_bps);
}

std::int32_t SwitchedNetwork::placement_grain() const noexcept {
  if (const auto* ft = std::get_if<FatTree>(&params_.core)) return ft->arity;
  if (const auto* df = std::get_if<Dragonfly>(&params_.core)) return df->group_size;
  return 1;
}

sim::TimePoint SwitchedNetwork::transfer(NodeId src, NodeId dst, std::int64_t bytes) {
  if (src < 0 || src >= nodes_ || dst < 0 || dst >= nodes_) {
    throw std::out_of_range("SwitchedNetwork::transfer: node id out of range");
  }
  const sim::Duration ser = serialization(bytes, params_.line_rate_bps);
  // Sender occupies its tx port for access overhead + serialization.
  const sim::TimePoint tx_done =
      lazy(tx_[static_cast<std::size_t>(src)], sim_).reserve(params_.access_overhead + ser);
  if (trace::active()) {
    trace::emit({.t_ns = sim_.now().ns,
                 .bytes = wire_bytes(bytes),
                 .aux0 = (tx_done - (params_.access_overhead + ser)).ns,
                 .aux1 = tx_done.ns,
                 .kind = trace::Kind::Frame,
                 .rank = static_cast<std::int16_t>(src),
                 .peer = static_cast<std::int16_t>(dst)});
  }
  sim::TimePoint head = tx_done - ser + params_.switch_latency;  // first byte past the edge
  sim::Duration stream_ser = ser;  // how long the byte stream takes past the slowest stage

  // One core cable: occupied for its own serialization from the head's
  // arrival; the head emerges `latency` after the cable's first byte, and
  // a slow cable paces the whole stream.
  const auto cross = [&](std::uint64_t key, sim::Duration cable_ser, sim::Duration latency) {
    sim::SerialResource& cable = cables_.try_emplace(key, sim_).first->second;
    head = cable.reserve_from(head, cable_ser) - cable_ser + latency;
    stream_ser = std::max(stream_ser, cable_ser);
  };
  if (const auto* trunk = std::get_if<Trunk>(&params_.core)) {
    if ((src < far_half_) != (dst < far_half_)) {
      cross(kTrunkKey, serialization(bytes, trunk->rate_bps), params_.switch_latency);
    }
  } else if (const auto* ft = std::get_if<FatTree>(&params_.core)) {
    // Climb `meet` tiers (0: same edge switch) out of src's level-l
    // switches, then descend into dst's, all on plane (dst mod uplinks).
    std::int32_t meet = 0;
    while (src / span_[static_cast<std::size_t>(meet) + 1] !=
           dst / span_[static_cast<std::size_t>(meet) + 1]) {
      ++meet;
    }
    const std::int32_t plane = dst % ft->uplinks;
    const sim::Duration up_ser = serialization(bytes, ft->uplink_rate_bps);
    for (std::int32_t l = 1; l <= meet; ++l) {
      cross(fat_tree_key(true, l, src / span_[static_cast<std::size_t>(l)], plane), up_ser,
            params_.switch_latency);
    }
    for (std::int32_t l = meet; l >= 1; --l) {
      cross(fat_tree_key(false, l, dst / span_[static_cast<std::size_t>(l)], plane), up_ser,
            params_.switch_latency);
    }
  } else if (const auto* df = std::get_if<Dragonfly>(&params_.core)) {
    const std::int32_t gs = src / df->group_size;
    const std::int32_t gd = dst / df->group_size;
    if (gs != gd) {
      cross(global_key(gs, gd, dst % df->links_per_pair), serialization(bytes, df->global_rate_bps),
            df->global_latency + params_.switch_latency);
    }
  }

  // Receiver rx port occupied cut-through: the window starts when the head
  // clears the last switch and lasts as long as the slowest stage streams.
  const sim::TimePoint rx_done =
      lazy(rx_[static_cast<std::size_t>(dst)], sim_).reserve_from(head, stream_ser);
  return rx_done + params_.propagation;
}

}  // namespace pdc::net
