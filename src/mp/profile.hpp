// pdceval -- per-tool, per-platform cost profiles.
//
// Every architectural difference the paper attributes to a tool is carried
// here as an explicit, documented constant, consumed mechanically by the
// communicator implementations:
//
//   p4       direct TCP, blocking send, one send-side copy, binomial
//            collectives. Lowest overheads everywhere (paper Table 4).
//   PVM      fire-and-forget sends routed through per-host single-threaded
//            pvmd daemons (IPC copy + per-4KB-fragment processing), XDR
//            pack/unpack in the application, sequential mcast, NO global
//            reduction.
//   Express  heavier buffer layer that packetises messages (per-packet cost
//            split between sender and a background receive engine that
//            overlaps with the wire -- the "continuous flow" behaviour the
//            paper observes in the ring test), sequential broadcast, but a
//            well-tuned excombine; its Alpha and SP-1 native ports
//            are markedly better than its SUN port (quality factor).
//
// Fixed costs are specified at a 33 MHz reference clock and scaled by the
// platform clock; per-byte costs are multiples of the platform's copy rate.
// Calibration targets: paper Table 3 (see EXPERIMENTS.md).
#pragma once

#include <cstdint>

#include "host/platform.hpp"
#include "mp/tool.hpp"
#include "sim/time.hpp"

namespace pdc::mp {

struct ToolProfile {
  // Application-level fixed costs (already scaled to the platform's clock).
  sim::Duration send_fixed;
  sim::Duration recv_fixed;
  // Application-level per-byte copy/encode costs, multiples of cpu.copy().
  double send_copies{0};
  double recv_copies{0};
  /// true: receive-side processing runs on a background per-node engine
  /// (pipelines with the wire); false: billed in the receiving process.
  bool recv_in_background{false};
  /// true: send-side copies/packetisation run on a background per-node tx
  /// engine after a short fixed handoff (Express's buffer layer -- the
  /// "continuous flow" behaviour of the paper's ring test). The work still
  /// precedes the wire for each message, so one-at-a-time exchanges (ping-
  /// pong) pay full cost; only streaming overlaps.
  bool send_in_background{false};

  // Daemon routing (PVM).
  bool via_daemon{false};
  sim::Duration daemon_fixed;       ///< per daemon traversal
  double daemon_copies{0};          ///< IPC copy, multiples of cpu.copy()
  std::int64_t daemon_fragment{0};  ///< pvmd fragment size (bytes)
  sim::Duration daemon_per_fragment;
  /// Service inflation when the daemon is already backlogged: the single-
  /// threaded pvmd thrashes between concurrent inbound/outbound streams and
  /// the application IPC (context switches, interleaved fragment queues).
  /// One message at a time (ping-pong) never pays this; the ring's
  /// simultaneous in+out traffic always does -- which is exactly the
  /// anomaly the paper reports in Figure 3.
  double daemon_duplex_penalty{1.0};

  /// true: send returns when the sender's kernel stack has taken the data
  /// (p4/Express over TCP). false: send returns after local processing only
  /// (PVM hands off to the daemon and continues).
  bool blocking_send{true};

  // Packetisation in the tool's own buffer layer (Express).
  std::int64_t packet_bytes{0};
  sim::Duration per_packet_send;
  sim::Duration per_packet_recv;

  /// Extra fixed cost per collective tree/dissemination step.
  sim::Duration collective_step;

  /// Broadcast/combine algorithm selection.
  enum class BroadcastAlgo { BinomialTree, SequentialFromRoot } broadcast_algo{
      BroadcastAlgo::BinomialTree};
  enum class ReduceAlgo { GatherBroadcastTree, RecursiveDoubling, Unsupported } reduce_algo{
      ReduceAlgo::GatherBroadcastTree};
};

/// The calibrated profile of `kind` on `platform`.
[[nodiscard]] ToolProfile tool_profile(ToolKind kind, host::PlatformId platform);

}  // namespace pdc::mp
