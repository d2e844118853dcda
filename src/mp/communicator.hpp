// pdceval -- the per-rank communication endpoint.
//
// One Communicator implementation serves all three tools; every behavioural
// difference (daemon routing, blocking semantics, packetisation, collective
// algorithms, missing primitives) is driven by the ToolProfile, so the
// architectural claims in DESIGN.md live in exactly one place and apply
// uniformly to micro-benchmarks and applications.
//
// All operations are coroutines: `co_await comm.send(...)`. Costs are
// billed in simulated time; payload bytes are really moved.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "host/node.hpp"
#include "mp/message.hpp"
#include "mp/profile.hpp"
#include "mp/runtime.hpp"
#include "sim/task.hpp"

namespace pdc::mp {

class Communicator {
 public:
  Communicator(Runtime& rt, int rank);
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return rt_.size(); }
  [[nodiscard]] sim::Simulation& sim() noexcept { return rt_.sim(); }
  [[nodiscard]] Runtime& runtime() noexcept { return rt_; }
  [[nodiscard]] host::Node& node() { return rt_.node(rank_); }
  [[nodiscard]] const ToolProfile& profile() const noexcept { return rt_.profile(); }

  /// Reliability work the transport did on this rank's behalf (all zero on
  /// a fault-free wire).
  [[nodiscard]] const TransportStats& transport_stats() const {
    return rt_.transport_stats(rank_);
  }

  // -- point to point ------------------------------------------------------

  /// Send `payload` to rank `dst` with `tag`. Blocking semantics follow the
  /// tool (p4/Express: returns when the kernel has taken the data; PVM:
  /// returns once the local pvmd has the buffer).
  sim::Task<void> send(int dst, int tag, Payload payload);

  /// Routing hint mirroring pvm_setopt(PvmRouteDirect): task-to-task TCP
  /// connections that bypass the pvmd daemons. Honoured by PVM only; a
  /// no-op for p4 and Express (which are always direct). Real PVM codes
  /// enabled this for symmetric all-to-all exchanges (PSRS, transposes) and
  /// kept the default daemon route in host-node codes, where a master
  /// holding sockets to every worker would exhaust descriptors.
  void set_route_direct(bool direct) noexcept { route_direct_ = direct; }
  [[nodiscard]] bool route_direct() const noexcept { return route_direct_; }

  /// Receive the oldest message matching (src, tag); kAnySource/kAnyTag act
  /// as wildcards.
  sim::Task<Message> recv(int src = kAnySource, int tag = kAnyTag);

  // -- collectives ---------------------------------------------------------

  /// Broadcast `data` from `root` to everyone (in: root's payload; out:
  /// everyone holds a reference to the *same* immutable payload -- zero
  /// host copies at forwarding nodes and receivers). Algorithm per tool:
  /// p4 binomial tree, PVM sequential mcast, Express sequential
  /// exbroadcast.
  sim::Task<void> broadcast(int root, Payload& data, int tag);

  /// Owning-buffer convenience overload (in: root's bytes; out: everyone's
  /// own copy). Same simulated cost; one host copy-out per receiver.
  sim::Task<void> broadcast(int root, Bytes& data, int tag);

  [[nodiscard]] bool has_global_sum() const noexcept {
    return profile().reduce_algo != ToolProfile::ReduceAlgo::Unsupported;
  }

  /// Element-wise global sum; result replaces `v` on every rank.
  /// Throws ToolUnsupported for PVM (as in the paper).
  sim::Task<void> global_sum(std::vector<double>& v);
  sim::Task<void> global_sum(std::vector<std::int32_t>& v);

  // -- compute billing -----------------------------------------------------
  //
  // Each emits its trace record and returns the delay's awaiter, so a
  // billed step costs no coroutine frame. Await the result at once.

  /// Bill floating-point work to this rank's simulated CPU.
  [[nodiscard]] sim::Simulation::DelayAwaiter compute_flops(double flops);
  /// Bill integer/compare-bound work (sorting, encoding).
  [[nodiscard]] sim::Simulation::DelayAwaiter compute_intops(double ops);
  /// Bill one memory copy of `bytes`.
  [[nodiscard]] sim::Simulation::DelayAwaiter compute_copy(std::int64_t bytes);

 private:
  template <typename T>
  sim::Task<void> global_sum_impl(std::vector<T>& v);
  template <typename T>
  sim::Task<void> reduce_gather_broadcast(std::vector<T>& v);
  template <typename T>
  sim::Task<void> reduce_recursive_doubling(std::vector<T>& v);

  [[nodiscard]] std::int64_t packets_for(std::int64_t bytes) const noexcept;
  [[nodiscard]] sim::Duration send_side_cost(std::int64_t bytes) const;
  [[nodiscard]] sim::Duration daemon_service(std::int64_t bytes) const;
  [[nodiscard]] sim::Duration daemon_latency(std::int64_t bytes, sim::Duration service) const;
  /// The receive handoff of a message sent on the direct route (no pvmd):
  /// the Express receive engine when the tool drains in the background,
  /// else straight to the mailbox.
  [[nodiscard]] Handoff direct_handoff(int dst, std::int64_t bytes) const;
  /// Trace records name cluster nodes, so the jobs sharing one cluster keep
  /// apart in a trace.
  [[nodiscard]] std::int16_t trace_node(int rank) const noexcept {
    return static_cast<std::int16_t>(rt_.node_of(rank));
  }

  Runtime& rt_;
  int rank_;
  bool route_direct_{false};
};

// Internal tags (top of the tag space; user code should stay below 1<<20).
inline constexpr int kTagReduce = (1 << 20) + 3;
inline constexpr int kTagReduceBcast = (1 << 20) + 4;

}  // namespace pdc::mp
