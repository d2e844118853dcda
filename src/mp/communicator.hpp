// pdceval -- the per-rank communication endpoint.
//
// One Communicator implementation serves all three tools; every behavioural
// difference (daemon routing, blocking semantics, packetisation, collective
// algorithms, missing primitives) is driven by the ToolProfile, so the
// architectural claims in DESIGN.md live in exactly one place and apply
// uniformly to micro-benchmarks and applications.
//
// Every operation is awaited: `co_await comm.send(...)`. send, recv and the
// compute billing are awaiters whose state lives in the caller's frame, so
// the per-message path allocates no coroutine frame; the collectives are
// coroutines built on them. Costs are billed in simulated time; payload
// bytes are really moved.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
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
  //
  // send and recv return awaiters. Await the result at once: the awaiter
  // holds the operation's state, and the events it schedules point at it.

  class SendAwaiter;
  class RecvAwaiter;

  /// Send `payload` to rank `dst` with `tag`. Blocking semantics follow the
  /// tool (p4/Express: returns when the kernel has taken the data; PVM:
  /// returns once the local pvmd has the buffer). Throws std::out_of_range
  /// for a destination outside the communicator.
  [[nodiscard]] SendAwaiter send(int dst, int tag, Payload payload);

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
  [[nodiscard]] RecvAwaiter recv(int src = kAnySource, int tag = kAnyTag);

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

  /// Hand a sent message to the fabric along the tool's route, once send's
  /// application-side cost is paid. Returns when a blocking send resumes
  /// (clamped to now by the caller), or nullopt when it returns at once.
  [[nodiscard]] std::optional<sim::TimePoint> route(int dst, Message msg);

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

/// What send returns. Suspending emits SendBegin and Pack and schedules the
/// hand-off at the end of the application-side cost; that event routes the
/// message and resumes the caller, inline or, for a blocking tool, when the
/// kernel has taken the data. Resuming emits SendEnd.
class Communicator::SendAwaiter {
 public:
  SendAwaiter(const SendAwaiter&) = delete;
  SendAwaiter& operator=(const SendAwaiter&) = delete;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> caller);
  void await_resume() const;

 private:
  friend class Communicator;
  SendAwaiter(Communicator& comm, int dst, int tag, Payload payload) noexcept
      : comm_(comm),
        dst_(dst),
        tag_(tag),
        bytes_(payload ? static_cast<std::int64_t>(payload->size()) : 0),
        payload_(std::move(payload)) {}

  Communicator& comm_;
  int dst_;
  int tag_;
  std::int64_t bytes_;
  Payload payload_;  ///< moved into the message at the hand-off
  std::coroutine_handle<> caller_;
  std::uint64_t trace_id_{0};
  std::int64_t begin_ns_{0};
};

/// What recv returns: a posted mailbox waiter. Once a message matches
/// (at suspension, or at the wake event of the push that brings it) it
/// emits Unpack and resumes the caller after the receive cost. Resuming
/// emits RecvEnd and hands over the message.
class Communicator::RecvAwaiter : Mailbox::Waiter {
 public:
  RecvAwaiter(const RecvAwaiter&) = delete;
  RecvAwaiter& operator=(const RecvAwaiter&) = delete;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> caller);
  Message await_resume();

 private:
  friend class Communicator;
  RecvAwaiter(Communicator& comm, int src, int tag) noexcept
      : Mailbox::Waiter{src, tag, &RecvAwaiter::wake_on_match}, comm_(comm) {}
  static void wake_on_match(Mailbox::Waiter& w);
  void matched();

  Communicator& comm_;
  std::coroutine_handle<> caller_;
  std::int64_t begin_ns_{0};
  std::int64_t match_ns_{0};
};

// Internal tags (top of the tag space; user code should stay below 1<<20).
inline constexpr int kTagReduce = (1 << 20) + 3;
inline constexpr int kTagReduceBcast = (1 << 20) + 4;

}  // namespace pdc::mp
