#include "net/fat_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/sink.hpp"

namespace pdc::net {

namespace {

/// Link key layout: direction (1 bit) | level (15 bits) | switch index
/// (32 bits) | plane (16 bits). Levels stay tiny (<= 15 tiers covers any
/// practical machine) and switch indices fit 32 bits by construction.
[[nodiscard]] std::uint64_t link_key(bool up, std::int32_t level, std::int64_t sw,
                                     std::int32_t plane) noexcept {
  return (static_cast<std::uint64_t>(up) << 63) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level) & 0x7FFFu) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(sw)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(plane) & 0xFFFFu);
}

}  // namespace

FatTreeNetwork::FatTreeNetwork(sim::Simulation& sim, std::string name, std::int32_t nodes,
                               FatTreeParams params)
    : sim_(sim),
      name_(std::move(name)),
      params_(params),
      nodes_(nodes),
      tx_(sim, static_cast<std::size_t>(std::max(nodes, 1))),
      rx_(sim, static_cast<std::size_t>(std::max(nodes, 1))),
      links_(sim) {
  if (nodes <= 0) throw std::invalid_argument("FatTreeNetwork: need at least one node");
  if (params_.arity < 2 || params_.levels < 1 || params_.uplinks < 1) {
    throw std::invalid_argument("FatTreeNetwork: arity >= 2, levels >= 1, uplinks >= 1");
  }
  span_.resize(static_cast<std::size_t>(params_.levels) + 1);
  span_[0] = 1;
  for (std::int32_t l = 1; l <= params_.levels; ++l) {
    span_[static_cast<std::size_t>(l)] = span_[static_cast<std::size_t>(l) - 1] * params_.arity;
  }
  if (nodes > span_[static_cast<std::size_t>(params_.levels)]) {
    throw std::invalid_argument("FatTreeNetwork: " + std::to_string(nodes) +
                                " nodes exceed capacity arity^levels = " +
                                std::to_string(span_[static_cast<std::size_t>(params_.levels)]));
  }
}

std::int64_t FatTreeNetwork::wire_bytes(std::int64_t bytes) const noexcept {
  // Non-positive counts clamp to one empty frame (never negative wire
  // bytes, which would credit serialization time back to the sender).
  if (bytes < 0) bytes = 0;
  const std::int64_t frames =
      bytes <= 0 ? 1 : (bytes + params_.frame_payload - 1) / params_.frame_payload;
  return bytes + frames * params_.frame_overhead_bytes;
}

sim::Duration FatTreeNetwork::serialization(std::int64_t bytes, double rate_bps) const noexcept {
  return sim::from_seconds(static_cast<double>(wire_bytes(bytes)) * 8.0 / rate_bps);
}

void FatTreeNetwork::check_ids(NodeId src, NodeId dst) const {
  if (src < 0 || src >= nodes_ || dst < 0 || dst >= nodes_) {
    throw std::out_of_range("FatTreeNetwork::transfer: node id out of range");
  }
}

std::int32_t FatTreeNetwork::meet_level(NodeId src, NodeId dst) const noexcept {
  // Returns the number of tiers to climb above the edge switch: 0 when both
  // hosts share an edge switch, l when the lowest common switch sits at
  // level l+1. Always < levels (the top tier covers every host).
  for (std::int32_t l = 0; l < params_.levels; ++l) {
    if (src / span_[static_cast<std::size_t>(l) + 1] ==
        dst / span_[static_cast<std::size_t>(l) + 1]) {
      return l;
    }
  }
  return params_.levels;
}

std::int32_t FatTreeNetwork::path_links(NodeId src, NodeId dst) const noexcept {
  const std::int32_t meet = meet_level(src, dst);
  return meet <= 0 ? 0 : 2 * meet;
}

sim::TimePoint FatTreeNetwork::transfer(NodeId src, NodeId dst, std::int64_t bytes) {
  check_ids(src, dst);
  const sim::Duration ser = serialization(bytes, params_.line_rate_bps);
  // Sender occupies its tx port for access overhead + serialization.
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
  // Head of the stream emerges from the edge switch one latency after the
  // first byte left the tx port.
  sim::TimePoint head = tx_done - ser + params_.switch_latency;
  sim::Duration stream_ser = ser;

  // `meet` tiers to climb (0: same edge switch, nothing but the edge hop).
  // The stream crosses `meet` uplink cables -- one out of src's level-l
  // switch for each l in [1, meet] -- reaches the common level-(meet+1)
  // switch, then `meet` downlink cables into dst's level-l switches for l
  // from meet down to 1. D-mod-k: every hop rides plane (dst mod uplinks).
  const std::int32_t meet = meet_level(src, dst);
  if (meet > 0) {
    const std::int32_t plane = dst % params_.uplinks;
    const sim::Duration up_ser = serialization(bytes, params_.uplink_rate_bps);
    for (std::int32_t l = 1; l <= meet; ++l) {
      const std::int64_t sw = src / span_[static_cast<std::size_t>(l)];
      auto& up = links_.at(link_key(true, l, sw, plane));
      const sim::TimePoint done = up.reserve_from(head, up_ser);
      head = done - up_ser + params_.switch_latency;
      stream_ser = std::max(stream_ser, up_ser);
    }
    for (std::int32_t l = meet; l >= 1; --l) {
      const std::int64_t sw = dst / span_[static_cast<std::size_t>(l)];
      auto& down = links_.at(link_key(false, l, sw, plane));
      const sim::TimePoint done = down.reserve_from(head, up_ser);
      head = done - up_ser + params_.switch_latency;
      stream_ser = std::max(stream_ser, up_ser);
    }
  }

  // Receiver rx port occupied cut-through: the window starts when the head
  // clears the last switch and lasts as long as the slowest stage streams.
  const sim::TimePoint rx_done =
      rx_.at(static_cast<std::size_t>(dst)).reserve_from(head, stream_ser);
  return rx_done + params_.propagation;
}

}  // namespace pdc::net
