#include "net/dragonfly.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/sink.hpp"

namespace pdc::net {

namespace {

/// Global-link key: source group (24 bits) | dest group (24 bits) | cable
/// index (16 bits). Group counts stay far below 2^24 at any plausible P.
[[nodiscard]] std::uint64_t global_key(std::int32_t gs, std::int32_t gd,
                                       std::int32_t cable) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gs)) << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(gd)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cable) & 0xFFFFu);
}

}  // namespace

DragonflyNetwork::DragonflyNetwork(sim::Simulation& sim, std::string name, std::int32_t nodes,
                                   DragonflyParams params)
    : sim_(sim),
      name_(std::move(name)),
      params_(params),
      nodes_(nodes),
      tx_(sim, static_cast<std::size_t>(std::max(nodes, 1))),
      rx_(sim, static_cast<std::size_t>(std::max(nodes, 1))),
      globals_(sim) {
  if (nodes <= 0) throw std::invalid_argument("DragonflyNetwork: need at least one node");
  if (params_.group_size < 1 || params_.global_links_per_pair < 1) {
    throw std::invalid_argument("DragonflyNetwork: group_size and global links must be >= 1");
  }
}

std::int64_t DragonflyNetwork::wire_bytes(std::int64_t bytes) const noexcept {
  // Non-positive counts clamp to one empty frame (never negative wire
  // bytes, which would credit serialization time back to the sender).
  if (bytes < 0) bytes = 0;
  const std::int64_t frames =
      bytes <= 0 ? 1 : (bytes + params_.frame_payload - 1) / params_.frame_payload;
  return bytes + frames * params_.frame_overhead_bytes;
}

sim::Duration DragonflyNetwork::serialization(std::int64_t bytes,
                                              double rate_bps) const noexcept {
  return sim::from_seconds(static_cast<double>(wire_bytes(bytes)) * 8.0 / rate_bps);
}

sim::TimePoint DragonflyNetwork::transfer(NodeId src, NodeId dst, std::int64_t bytes) {
  if (src < 0 || src >= nodes_ || dst < 0 || dst >= nodes_) {
    throw std::out_of_range("DragonflyNetwork::transfer: node id out of range");
  }
  const sim::Duration ser = serialization(bytes, params_.line_rate_bps);
  const sim::TimePoint tx_done =
      tx_.at(static_cast<std::size_t>(src)).reserve(params_.access_overhead + ser);
  if (trace::active()) {
    trace::emit({.t_ns = sim_.now().ns,
                 .bytes = wire_bytes(bytes),
                 .aux0 = (tx_done - (params_.access_overhead + ser)).ns,
                 .aux1 = tx_done.ns,
                 .kind = trace::Kind::Frame,
                 .rank = static_cast<std::int16_t>(src),
                 .peer = static_cast<std::int16_t>(dst)});
  }
  // Head clears the source group's switch one latency after first byte.
  sim::TimePoint head = tx_done - ser + params_.switch_latency;
  sim::Duration stream_ser = ser;

  const std::int32_t gs = group_of(src);
  const std::int32_t gd = group_of(dst);
  if (gs != gd) {
    // Minimal route: one global cable of the (gs, gd) bundle, chosen
    // deterministically by destination, then the destination group switch.
    const std::int32_t cable = dst % params_.global_links_per_pair;
    auto& glink = globals_.at(global_key(gs, gd, cable));
    const sim::Duration g_ser = serialization(bytes, params_.global_rate_bps);
    const sim::TimePoint done = glink.reserve_from(head, g_ser);
    head = done - g_ser + params_.global_latency + params_.switch_latency;
    stream_ser = std::max(stream_ser, g_ser);
  }

  const sim::TimePoint rx_done =
      rx_.at(static_cast<std::size_t>(dst)).reserve_from(head, stream_ser);
  return rx_done + params_.propagation;
}

}  // namespace pdc::net
