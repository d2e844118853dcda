// pdceval -- tool runtime: the messaging fabric one tool instance owns on
// one cluster.
//
// The runtime owns per-rank mailboxes and the per-node auxiliary resources
// (pvmd daemons, Express background receive engines) and implements the
// kernel transfer pipeline: sender stack -> wire -> receiver stack ->
// receive handoff, as a chain of scheduled events so every resource
// reservation happens at its own moment in simulated time (exact FIFO
// queueing). The message travels down that chain in one `Parcel`, taken
// from a free list the runtime owns when the message is sent and returned
// when the mailbox has it; every hop's event captures only the parcel
// pointer (plus at most one scalar), so it fits the event's 16-byte inline
// budget and no hop allocates. The last hop is named by a `Handoff` --
// where the receiving node's tool stack takes the message (straight to the
// process, through the Express receive engine, or through the destination
// pvmd), which is where the paper's receive-side architectures differ.
//
// On a reliable wire (every catalogued physical network) the pipeline is
// exactly that three-hop chain. When the cluster's network reports
// `reliable() == false` (the fault-injection decorator with an armed plan)
// the kernel switches to a reliable transport: per-link sequence numbers,
// rejection of frames the wire corrupted, receiver-side dedup and in-order
// release, and ack/timeout/retransmission with capped exponential backoff
// -- all as scheduled events on the same queue, so runs stay
// bit-reproducible. The parcel doubles as the transport's in-flight record;
// it counts the events and the reorder-buffer slot that still name it and
// goes back to the free list when the last one lets go. Parcels stranded by
// a run that ends early (a throw, a budget trip, a deadlock) are freed with
// the runtime. A frame carries the wire's corruption verdict rather
// than a payload CRC: payload bytes are shared and immutable, so a CRC
// recomputed at the receiver would only re-derive that verdict.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/platform.hpp"
#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "mp/profile.hpp"
#include "mp/tool.hpp"
#include "sim/resource.hpp"

namespace pdc::mp {

class Communicator;

/// Reliability work performed by one rank's transport (all zero on a
/// reliable wire). `drops_seen` counts frames this rank transmitted that
/// the wire lost (data frames at the sender, acks at the receiver);
/// `corrupt_rejected` and `dup_discarded` count at the receiving rank.
struct TransportStats {
  std::int64_t retransmits{0};
  std::int64_t drops_seen{0};
  std::int64_t corrupt_rejected{0};
  std::int64_t dup_discarded{0};

  TransportStats& operator+=(const TransportStats& o) noexcept {
    retransmits += o.retransmits;
    drops_seen += o.drops_seen;
    corrupt_rejected += o.corrupt_rejected;
    dup_discarded += o.dup_discarded;
    return *this;
  }
  friend bool operator==(const TransportStats&, const TransportStats&) = default;
};

/// A message exhausted its retransmission budget (the link is effectively
/// down for longer than the transport is willing to wait).
class TransportFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A contiguous slice of a cluster's nodes. A Runtime built over a range
/// exposes a dense rank space 0..count-1 whose rank r lives on physical
/// node base + r -- the multi-tenant scheduler places every job on such a
/// slice, so concurrent jobs on one cluster each see an ordinary
/// 0-based communicator while their traffic shares the physical fabric.
struct NodeRange {
  int base{0};
  int count{0};
};

/// The receive side of one message: the stage the destination's tool stack
/// routes it through once the destination kernel has it, with the costs
/// the sender already computed for that stage.
struct Handoff {
  enum class Stage : std::uint8_t {
    Mailbox,   ///< straight into the process's mailbox (p4, PvmRouteDirect)
    RxEngine,  ///< Express buffer layer: the background receive engine drains it
    Daemon,    ///< PVM: the destination pvmd forwards it
  };
  Stage stage{Stage::Mailbox};
  sim::Duration service{};  ///< the stage's busy time (RxEngine, Daemon)
  sim::Duration latency{};  ///< pipeline-fill latency (Daemon)
};

class Runtime;

/// One message on its way from the sending process to the receiving
/// mailbox: the message, its route, and (on an unreliable wire) the
/// reliable transport's per-message state. Owned by its Runtime.
struct Parcel {
  Runtime* rt{nullptr};
  Message msg;
  Handoff handoff;
  std::optional<net::ChunkProtocol> chunked;  ///< PVM daemon fragment+ack protocol
  int src{0};
  int dst{0};
  /// Events (and reorder-buffer slots) that still name this parcel.
  int refs{0};

  // Reliable transport only.
  int attempt{0};
  bool completed{false};  ///< an ack reached the sender
  // The message's size, kept apart: delivery moves the payload out, and a
  // spurious retransmission after it still sends these bytes. (The move
  // leaves `msg`'s scalar fields, so `msg.trace_id` stays valid.)
  std::int64_t bytes{0};
  std::uint64_t seq{0};
  sim::TimePoint deadline{};  ///< current attempt's retransmission deadline
  sim::Duration rto_base{};

  Parcel* next_free{nullptr};
};

class Runtime {
 public:
  Runtime(host::Cluster& cluster, ToolKind kind);
  /// Run with an explicit cost profile instead of a catalogued tool's --
  /// the hook for evaluating hypothetical or future tools against the 1995
  /// field (the paper's second objective: "defining the requirements of
  /// future systems"). `kind` only labels the runtime.
  Runtime(host::Cluster& cluster, ToolKind kind, ToolProfile profile);
  /// A runtime spanning only `range` of the cluster (a scheduler job's
  /// allocation). Ranks are job-local; the whole-cluster constructors are
  /// the degenerate range {0, cluster.size()}, bit-identical to before the
  /// range existed.
  Runtime(host::Cluster& cluster, ToolKind kind, ToolProfile profile, NodeRange range);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] ToolKind kind() const noexcept { return kind_; }
  [[nodiscard]] int size() const noexcept { return range_.count; }
  [[nodiscard]] host::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] sim::Simulation& sim() noexcept { return cluster_.simulation(); }
  [[nodiscard]] const ToolProfile& profile() const noexcept { return profile_; }

  /// Physical node id of a runtime-local rank (identity for whole-cluster
  /// runtimes). Every touch of a Node or of the network goes through this.
  [[nodiscard]] net::NodeId node_of(int rank) const noexcept {
    return static_cast<net::NodeId>(range_.base + rank);
  }
  [[nodiscard]] host::Node& node(int rank) { return cluster_.node(node_of(rank)); }

  [[nodiscard]] Communicator& comm(int rank);

  // Per-rank fabric state is created on first touch: a P=4096 cell whose
  // traffic involves a handful of ranks materialises a handful of
  // mailboxes, and p4/Express runs never pay for pvmd daemons at all.
  // Lazily-created resources start idle, exactly as eager ones would be at
  // first use, so results are bit-identical to the eager layout.
  [[nodiscard]] Mailbox& mailbox(int rank) {
    auto& slot = mailboxes_.at(static_cast<std::size_t>(rank));
    if (!slot) slot = std::make_unique<Mailbox>(sim());
    return *slot;
  }
  [[nodiscard]] sim::SerialResource& daemon(int rank) { return lazy_resource(daemons_, rank); }
  [[nodiscard]] sim::SerialResource& rx_engine(int rank) {
    return lazy_resource(rx_engines_, rank);
  }
  [[nodiscard]] sim::SerialResource& tx_engine(int rank) {
    return lazy_resource(tx_engines_, rank);
  }

  /// Mailboxes actually created (O(active) state pins in tests).
  [[nodiscard]] std::size_t active_mailboxes() const noexcept {
    std::size_t n = 0;
    for (const auto& m : mailboxes_) n += m != nullptr;
    return n;
  }

  /// Matching telemetry summed over every created mailbox (counters sum,
  /// peak depth is the max across ranks).
  [[nodiscard]] MailboxStats mailbox_total() const noexcept {
    MailboxStats total;
    for (const auto& m : mailboxes_) {
      if (m) total += m->stats();
    }
    return total;
  }

  /// Total messages moved through the fabric (reporting / tests).
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::uint64_t payload_bytes_sent() const noexcept { return payload_bytes_; }

  /// false iff the cluster network injects faults (cached at construction;
  /// wrap the network *before* building the Runtime).
  [[nodiscard]] bool reliable_wire() const noexcept { return reliable_wire_; }
  [[nodiscard]] const TransportStats& transport_stats(int rank) const {
    return transport_.at(static_cast<std::size_t>(rank));
  }
  [[nodiscard]] TransportStats transport_total() const noexcept;

 private:
  /// Receiver-side transport state of one directed link: the in-order
  /// release cursor and the reorder buffer.
  struct RxLink {
    std::uint64_t rx_next{0};
    std::map<std::uint64_t, Parcel*> rx_held;
  };

  /// A parcel carrying `msg` from rank `src` to rank `dst`, holding one
  /// reference (the caller's).
  [[nodiscard]] Parcel* take_parcel(int src, int dst, Message msg);
  /// Drop one reference; the last one returns the parcel to the free list.
  void unref(Parcel* p) noexcept;

  /// Push the parcel's message through sender stack -> network -> receiver
  /// stack, starting now, then route it through its handoff's stage into
  /// rank `dst`'s mailbox. The byte count and the trace id (0: untraced)
  /// come from the message; the parcel's `chunked` selects the fragment+ack
  /// wire protocol (PVM daemon traffic). Takes over the caller's reference.
  /// Returns the sender-stack completion time (what a blocking send waits
  /// for).
  sim::TimePoint kernel_transfer(Parcel* p);
  /// Reliable wire: the network hop, then the receiver stack.
  void wire_hop(Parcel* p);
  void receiver_stack(Parcel* p);
  /// Hand the parcel's message to rank `dst`'s mailbox at time `at`.
  void deliver_at(sim::TimePoint at, Parcel* p);
  void deliver(Parcel* p);

  /// Directed-link transport state, created on first use; O(active links),
  /// not O(P^2) (the seed's n*n vector cost ~1 GB at P=4096 before a single
  /// message moved). Kept per rank: the sender's sequence counters hang off
  /// src's slot, the receive cursors + reorder buffers off dst's, so a rank
  /// that never sends or receives reliably allocates nothing.
  [[nodiscard]] std::uint64_t& tx_seq(int src, int dst) {
    auto& slot = tx_links_.at(static_cast<std::size_t>(src));
    if (!slot) slot = std::make_unique<std::unordered_map<int, std::uint64_t>>();
    return (*slot)[dst];
  }
  [[nodiscard]] RxLink& rx_link(int src, int dst) {
    auto& slot = rx_links_.at(static_cast<std::size_t>(dst));
    if (!slot) slot = std::make_unique<std::unordered_map<int, RxLink>>();
    return (*slot)[src];
  }

  [[nodiscard]] sim::SerialResource& lazy_resource(
      std::vector<std::unique_ptr<sim::SerialResource>>& slots, int rank) {
    auto& slot = slots.at(static_cast<std::size_t>(rank));
    if (!slot) slot = std::make_unique<sim::SerialResource>(sim());
    return *slot;
  }

  /// The receive handoff, run when rank `dst`'s kernel has the message.
  void hand_off(Parcel* p);
  /// Reserve rank `rank`'s pvmd for one message (either side of the daemon
  /// route). A backlogged daemon thrashes between its in and out streams:
  /// the profile's duplex penalty scales both costs.
  sim::TimePoint daemon_hop(int rank, sim::Duration service, sim::Duration latency);

  // The reliable transport. Each handler that an event runs takes over that
  // event's reference; every event it schedules takes a new one.
  void transmit_attempt(Parcel* p);
  void arm_retransmit(Parcel* p, sim::TimePoint at);
  void on_retransmit_timer(Parcel* p, int armed_for);
  void on_data_frame(Parcel* p, bool corrupted);
  void send_ack(Parcel* p);
  void release_to_receiver(Parcel* p);
  [[nodiscard]] sim::Duration rto(const Parcel& p) const noexcept;

  host::Cluster& cluster_;
  ToolKind kind_;
  ToolProfile profile_;
  NodeRange range_;
  bool reliable_wire_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<sim::SerialResource>> daemons_;
  std::vector<std::unique_ptr<sim::SerialResource>> rx_engines_;
  std::vector<std::unique_ptr<sim::SerialResource>> tx_engines_;
  std::vector<std::unique_ptr<Communicator>> comms_;
  std::vector<std::unique_ptr<std::unordered_map<int, std::uint64_t>>> tx_links_;  // [src] -> dst
  std::vector<std::unique_ptr<std::unordered_map<int, RxLink>>> rx_links_;         // [dst] -> src
  std::vector<TransportStats> transport_;  // per rank
  // Parcel storage: slabs that only grow during a run, threaded by an
  // intrusive free list. Freed (payloads released) with the runtime.
  std::vector<std::unique_ptr<Parcel[]>> parcel_slabs_;
  Parcel* free_parcels_{nullptr};
  std::size_t parcels_allocated_{0};
  std::uint64_t messages_sent_{0};
  std::uint64_t payload_bytes_{0};

  friend class Communicator;
};

}  // namespace pdc::mp
