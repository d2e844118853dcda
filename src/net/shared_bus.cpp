#include "net/shared_bus.hpp"

#include <algorithm>
#include <utility>

#include "trace/sink.hpp"

namespace pdc::net {

SharedBusNetwork::SharedBusNetwork(sim::Simulation& sim, std::string name, SharedBusParams params)
    : sim_(sim), name_(std::move(name)), params_(params), channel_(sim) {}

std::int64_t SharedBusNetwork::frames_for(std::int64_t bytes) const noexcept {
  if (bytes <= 0) return 1;  // zero-payload message still sends one frame
  return (bytes + params_.frame_payload - 1) / params_.frame_payload;
}

std::int64_t SharedBusNetwork::wire_bytes(std::int64_t bytes) const noexcept {
  // Non-positive counts clamp to an empty single frame -- never negative
  // wire bytes (which would credit serialization time back to the sender).
  if (bytes < 0) bytes = 0;
  return bytes + frames_for(bytes) * params_.frame_overhead_bytes;
}

std::int64_t SharedBusNetwork::chunked_frames(std::int64_t bytes,
                                              const ChunkProtocol& protocol) const noexcept {
  // Closed form of "frame every chunk separately": full chunks all frame
  // identically, plus the short tail chunk (tests pin this against the
  // per-chunk loop across chunk/frame-size combinations).
  if (bytes <= 0) return frames_for(0);
  const std::int64_t full = bytes / protocol.chunk_bytes;
  const std::int64_t tail = bytes % protocol.chunk_bytes;
  return full * frames_for(protocol.chunk_bytes) + (tail > 0 ? frames_for(tail) : 0);
}

sim::Duration SharedBusNetwork::serialization(std::int64_t wire_bytes) const noexcept {
  return sim::from_seconds(static_cast<double>(wire_bytes) * 8.0 / params_.line_rate_bps);
}

sim::Duration SharedBusNetwork::collision_waste(std::int64_t acquisitions) const noexcept {
  // Only a backlogged segment collides; a lone sender acquires cleanly.
  if (channel_.busy_until() <= sim_.now()) return sim::Duration::zero();
  return acquisitions * params_.collision_overhead;
}

sim::TimePoint SharedBusNetwork::transfer(NodeId src, NodeId dst, std::int64_t bytes) {
  const std::int64_t frames = frames_for(bytes);
  const sim::Duration service = serialization(wire_bytes(bytes)) + frames * params_.per_frame_gap +
                                collision_waste(frames);
  const sim::TimePoint done = channel_.reserve(service);
  if (trace::active()) {
    trace::emit({.t_ns = sim_.now().ns,
                 .bytes = wire_bytes(bytes),
                 .aux0 = (done - service).ns,
                 .aux1 = done.ns,
                 .kind = trace::Kind::Frame,
                 .rank = static_cast<std::int16_t>(src),
                 .peer = static_cast<std::int16_t>(dst)});
  }
  return done + params_.propagation;
}

sim::TimePoint SharedBusNetwork::transfer_chunked(NodeId src, NodeId dst, std::int64_t bytes,
                                                  const ChunkProtocol& protocol) {
  // Stop-and-wait fragments: each chunk is framed separately and trailed by
  // an ack that must itself acquire the shared channel. Under load every
  // acquisition (data frame or ack) also pays collision waste.
  const std::int64_t chunks =
      bytes <= 0 ? 1
                 : (bytes + protocol.chunk_bytes - 1) / protocol.chunk_bytes;
  const std::int64_t frames = chunked_frames(bytes, protocol);
  const std::int64_t ack_wire = protocol.ack_bytes + params_.frame_overhead_bytes;
  const sim::Duration data_time =
      serialization(bytes + frames * params_.frame_overhead_bytes) +
      frames * params_.per_frame_gap;
  const sim::Duration ack_time =
      chunks * (serialization(ack_wire) + params_.per_frame_gap + protocol.turnaround);
  const sim::Duration service =
      data_time + ack_time + collision_waste(frames + chunks);
  const sim::TimePoint done = channel_.reserve(service);
  if (trace::active()) {
    trace::emit({.t_ns = sim_.now().ns,
                 .bytes = bytes + frames * params_.frame_overhead_bytes +
                          chunks * (protocol.ack_bytes + params_.frame_overhead_bytes),
                 .aux0 = (done - service).ns,
                 .aux1 = done.ns,
                 .kind = trace::Kind::Frame,
                 .rank = static_cast<std::int16_t>(src),
                 .peer = static_cast<std::int16_t>(dst)});
  }
  return done + params_.propagation;
}

}  // namespace pdc::net
