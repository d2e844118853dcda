#include "net/switched.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/sink.hpp"

namespace pdc::net {

SwitchedNetwork::SwitchedNetwork(sim::Simulation& sim, std::string name, std::int32_t nodes,
                                 SwitchedParams params)
    : sim_(sim),
      name_(std::move(name)),
      params_(params),
      nodes_(nodes),
      tx_(sim, static_cast<std::size_t>(std::max(nodes, 1))),
      rx_(sim, static_cast<std::size_t>(std::max(nodes, 1))) {
  if (nodes <= 0) throw std::invalid_argument("SwitchedNetwork: need at least one node");
  if (params_.trunk_split) {
    trunk_ = std::make_unique<sim::SerialResource>(sim);
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

bool SwitchedNetwork::crosses_trunk(NodeId src, NodeId dst) const noexcept {
  return params_.trunk_split &&
         ((src < *params_.trunk_split) != (dst < *params_.trunk_split));
}

sim::TimePoint SwitchedNetwork::transfer(NodeId src, NodeId dst, std::int64_t bytes) {
  if (src < 0 || src >= node_count() || dst < 0 || dst >= node_count()) {
    throw std::out_of_range("SwitchedNetwork::transfer: node id out of range");
  }
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
  sim::TimePoint head = tx_done - ser + params_.switch_latency;  // first byte past switch
  sim::Duration stream_ser = ser;  // how long the byte stream takes past the slowest stage

  if (crosses_trunk(src, dst)) {
    const sim::Duration trunk_ser = serialization(bytes, params_.trunk_rate_bps);
    const sim::TimePoint trunk_done = trunk_->reserve_from(head, trunk_ser);
    head = trunk_done - trunk_ser + params_.switch_latency;
    stream_ser = std::max(stream_ser, trunk_ser);  // a slow trunk paces the whole stream
  }

  // Receiver rx port occupied cut-through: the window starts when the first
  // byte emerges from the switch and lasts as long as the slowest upstream
  // stage keeps streaming.
  const sim::TimePoint rx_done =
      rx_.at(static_cast<std::size_t>(dst)).reserve_from(head, stream_ser);
  return rx_done + params_.propagation;
}

}  // namespace pdc::net
