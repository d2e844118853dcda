// pdceval -- shared-medium network (10 Mb/s Ethernet).
//
// One transmission at a time on the whole segment; frames from concurrent
// senders interleave in FIFO arrival order (a first-order stand-in for
// CSMA/CD that is deterministic and, at the utilisations the paper reaches,
// accurate to within the backoff noise the paper itself averages away).
#pragma once

#include "net/network.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace pdc::net {

struct SharedBusParams {
  double line_rate_bps{10e6};
  std::int64_t frame_payload{1500};     ///< MTU payload bytes per frame
  std::int64_t frame_overhead_bytes{26};  ///< preamble+header+FCS+IFG equivalent
  sim::Duration per_frame_gap{sim::microseconds(100)};  ///< driver + CSMA access
  sim::Duration propagation{sim::microseconds(5)};
  /// Extra channel time wasted per acquisition when the segment is already
  /// backlogged (CSMA/CD collisions + exponential backoff under load).
  /// Protocols that acquire the channel more often (fragment+ack) waste
  /// proportionally more -- the mechanism behind the paper's Figure 3 ring
  /// ordering.
  sim::Duration collision_overhead{sim::microseconds(400)};
};

class SharedBusNetwork final : public Network {
 public:
  SharedBusNetwork(sim::Simulation& sim, SharedBusParams params);

  sim::TimePoint transfer(NodeId src, NodeId dst, std::int64_t bytes) override;
  sim::TimePoint transfer_chunked(NodeId src, NodeId dst, std::int64_t bytes,
                                  const ChunkProtocol& protocol) override;
  [[nodiscard]] double line_rate_bps() const noexcept override { return params_.line_rate_bps; }
  [[nodiscard]] std::int64_t wire_bytes(std::int64_t bytes) const noexcept override;

  /// Even an empty message occupies the channel for one frame gap (plus
  /// serialization) and then propagates, so their sum is a safe horizon.
  [[nodiscard]] sim::Duration lookahead() const noexcept override {
    return params_.per_frame_gap + params_.propagation;
  }

  [[nodiscard]] const sim::SerialResource& channel() const noexcept { return channel_; }

  /// Frames per message (one per MTU payload; a zero-byte message is one
  /// frame).
  [[nodiscard]] std::int64_t frames_for(std::int64_t bytes) const noexcept;
  /// Total frames when `bytes` is cut into `protocol.chunk_bytes` pieces
  /// that are framed independently (closed form; tests compare it against
  /// the per-chunk loop).
  [[nodiscard]] std::int64_t chunked_frames(std::int64_t bytes,
                                            const ChunkProtocol& protocol) const noexcept;

 private:
  [[nodiscard]] sim::Duration serialization(std::int64_t wire_bytes) const noexcept;
  /// Collision waste for `acquisitions` channel grabs, charged only when
  /// the segment is already backlogged.
  [[nodiscard]] sim::Duration collision_waste(std::int64_t acquisitions) const noexcept;

  sim::Simulation& sim_;
  SharedBusParams params_;
  sim::SerialResource channel_;
};

}  // namespace pdc::net
