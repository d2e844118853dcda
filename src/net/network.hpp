// pdceval -- abstract network model.
//
// A Network answers one question: if `bytes` leave node `src` for node
// `dst` starting now, when does the last byte arrive at dst's NIC?
// Contention is modelled with busy-until SerialResources (exact FIFO
// queueing given the event loop's chronological calls).
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace pdc::net {

using NodeId = std::int32_t;

/// Wire behaviour of a datagram-fragment protocol (PVM's pvmd-to-pvmd
/// traffic: 4 KB fragments, each acknowledged). On a shared half-duplex
/// medium the extra channel acquisitions and ack turnarounds are costly
/// under load; switched full-duplex fabrics ignore this (acks ride the
/// reverse path without contending).
struct ChunkProtocol {
  std::int64_t chunk_bytes{4096};
  std::int64_t ack_bytes{64};
  sim::Duration turnaround{sim::microseconds(250)};
};

/// What actually happened to one frame on the wire. The timing-only
/// `transfer()` API answers "when would the last byte arrive"; `transmit()`
/// additionally reports the frame's fate, which is always "delivered
/// intact" on the catalogued physical networks and becomes interesting
/// under the fault-injection decorator (`pdc::fault::FaultyNetwork`).
struct Delivery {
  sim::TimePoint arrival;        ///< last byte at dst's NIC (includes reorder jitter)
  bool dropped{false};           ///< frame lost in transit; nothing arrives
  bool corrupted{false};         ///< arrives damaged; the receiver must reject it
  bool duplicated{false};        ///< a stale second copy also arrives
  sim::TimePoint dup_arrival;    ///< arrival of the duplicate (when duplicated)
};

class Network {
 public:
  virtual ~Network() = default;

  /// Start injecting `bytes` from src toward dst at the current simulated
  /// time; returns the arrival time of the last byte at dst.
  virtual sim::TimePoint transfer(NodeId src, NodeId dst, std::int64_t bytes) = 0;

  /// As transfer(), but carried by a stop-and-wait fragment protocol.
  /// Default: identical to transfer() (protocol costs negligible).
  virtual sim::TimePoint transfer_chunked(NodeId src, NodeId dst, std::int64_t bytes,
                                          const ChunkProtocol& /*protocol*/) {
    return transfer(src, dst, bytes);
  }

  /// As transfer(), but reporting the frame's fate as well as its timing.
  /// Physical networks always deliver intact; the fault decorator overrides
  /// this to inject drops/corruption/duplication/reordering. The kernel
  /// transport uses this entry point exclusively, so fault behaviour stays
  /// in one place.
  virtual Delivery transmit(NodeId src, NodeId dst, std::int64_t bytes) {
    return Delivery{.arrival = transfer(src, dst, bytes), .dup_arrival = {}};
  }

  /// transmit() for the fragment+ack wire protocol (fault granularity is
  /// the whole message: one fate per chunked transfer).
  virtual Delivery transmit_chunked(NodeId src, NodeId dst, std::int64_t bytes,
                                    const ChunkProtocol& protocol) {
    return Delivery{.arrival = transfer_chunked(src, dst, bytes, protocol), .dup_arrival = {}};
  }

  /// true: every frame is delivered intact, in FIFO order per link, exactly
  /// once -- the kernel transport may skip sequence/checksum/ack machinery
  /// entirely (and does, keeping fault-free timings bit-identical to the
  /// pre-fault kernel). The fault decorator returns false when its plan has
  /// any fault armed.
  [[nodiscard]] virtual bool reliable() const noexcept { return true; }

  /// Conservative lookahead: a lower bound on the latency of ANY transfer
  /// between distinct nodes -- if a frame is injected at time t, no byte of
  /// it can reach another node's NIC before t + lookahead(). The scheduler
  /// floors every job's launch delay at this value, so it is part of the
  /// pinned schedule bytes: changing an override moves SchedCell results.
  /// Zero means "unknown". Must not change over the life of a simulation.
  [[nodiscard]] virtual sim::Duration lookahead() const noexcept { return {}; }

  /// Nominal line rate in bits/s (for reporting).
  [[nodiscard]] virtual double line_rate_bps() const noexcept = 0;

  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// Wire-level bytes actually transmitted for a payload of `bytes`
  /// (framing/cell tax); used by utilisation reports and tests.
  [[nodiscard]] virtual std::int64_t wire_bytes(std::int64_t bytes) const noexcept = 0;
};

}  // namespace pdc::net
