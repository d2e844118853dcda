#include "mp/runtime.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "mp/communicator.hpp"
#include "trace/sink.hpp"

namespace pdc::mp {

namespace {

constexpr std::int64_t kAckBytes = 64;  // sequence + CRC + framing
constexpr int kMaxAttempts = 64;        // then TransportFailure
constexpr int kMaxBackoffShift = 8;     // RTO doubling cap: base * 2^8

}  // namespace

Runtime::Runtime(host::Cluster& cluster, ToolKind kind)
    : Runtime(cluster, kind, tool_profile(kind, cluster.platform())) {}

Runtime::Runtime(host::Cluster& cluster, ToolKind kind, ToolProfile profile)
    : Runtime(cluster, kind, std::move(profile), NodeRange{0, cluster.size()}) {}

Runtime::Runtime(host::Cluster& cluster, ToolKind kind, ToolProfile profile, NodeRange range)
    : cluster_(cluster),
      kind_(kind),
      profile_(profile),
      range_(range),
      reliable_wire_(cluster.network().reliable()) {
  if (range_.base < 0 || range_.count <= 0 || range_.base + range_.count > cluster.size()) {
    throw std::invalid_argument("Runtime: node range outside the cluster");
  }
  // Per-rank state is all create-on-first-touch; construction only sizes
  // the slot tables (one allocation each) so a 4096-rank cluster costs a
  // few vectors of null pointers until traffic actually flows.
  const auto n = static_cast<std::size_t>(range_.count);
  mailboxes_.resize(n);
  daemons_.resize(n);
  rx_engines_.resize(n);
  tx_engines_.resize(n);
  comms_.resize(n);
  tx_links_.resize(n);
  rx_links_.resize(n);
  transport_.resize(n);
}

Runtime::~Runtime() = default;

Communicator& Runtime::comm(int rank) {
  auto& slot = comms_.at(static_cast<std::size_t>(rank));
  if (!slot) slot = std::make_unique<Communicator>(*this, rank);
  return *slot;
}

TransportStats Runtime::transport_total() const noexcept {
  TransportStats total;
  for (const auto& t : transport_) total += t;
  return total;
}

Parcel* Runtime::take_parcel(int src, int dst, Message msg) {
  if (free_parcels_ == nullptr) {
    // Double the storage: a run reaches its peak in-flight count in a few
    // slabs and then recycles.
    const std::size_t n = std::max<std::size_t>(16, parcels_allocated_);
    auto slab = std::make_unique<Parcel[]>(n);
    for (std::size_t i = n; i-- > 0;) {
      slab[i].next_free = free_parcels_;
      free_parcels_ = &slab[i];
    }
    parcels_allocated_ += n;
    parcel_slabs_.push_back(std::move(slab));
  }
  Parcel* p = free_parcels_;
  free_parcels_ = p->next_free;
  *p = Parcel{};
  p->rt = this;
  p->msg = std::move(msg);
  p->src = src;
  p->dst = dst;
  p->refs = 1;
  return p;
}

void Runtime::unref(Parcel* p) noexcept {
  if (--p->refs > 0) return;
  p->next_free = free_parcels_;
  free_parcels_ = p;
}

sim::TimePoint Runtime::kernel_transfer(Parcel* p) {
  const std::int64_t bytes = p->msg.size_bytes();
  ++messages_sent_;
  payload_bytes_ += static_cast<std::uint64_t>(bytes);
  auto& src_node = node(p->src);
  const sim::TimePoint t1 = src_node.stack().reserve(src_node.stack_service(bytes));

  if (reliable_wire_) {
    // Fast path: the wire delivers every frame intact exactly once, so no
    // sequencing/reject/ack machinery runs (and fault-free timings stay
    // bit-identical to the pre-fault kernel).
    sim().schedule_at(t1, [p] { p->rt->wire_hop(p); });
    return t1;
  }

  p->bytes = bytes;
  p->seq = tx_seq(p->src, p->dst)++;  // send order == t1 order (FIFO src stack)
  const auto& network = cluster_.network();
  const double round_trip_s =
      static_cast<double>(network.wire_bytes(bytes) + network.wire_bytes(kAckBytes)) * 8.0 /
      network.line_rate_bps();
  p->rto_base = sim::from_seconds(4.0 * round_trip_s) + sim::milliseconds(2);
  sim().schedule_at(t1, [p] { p->rt->transmit_attempt(p); });
  return t1;
}

void Runtime::wire_hop(Parcel* p) {
  const std::int64_t bytes = p->msg.size_bytes();
  const net::NodeId s = node_of(p->src);
  const net::NodeId d = node_of(p->dst);
  const sim::TimePoint arrival = p->chunked
                                     ? cluster_.network().transfer_chunked(s, d, bytes, *p->chunked)
                                     : cluster_.network().transfer(s, d, bytes);
  if (trace::active()) {
    trace::emit({.t_ns = sim().now().ns,
                 .bytes = bytes,
                 .aux0 = arrival.ns,
                 .aux1 = 1,  // single attempt on a reliable wire
                 .id = p->msg.trace_id,
                 .kind = trace::Kind::MsgWire,
                 .rank = static_cast<std::int16_t>(s),
                 .peer = static_cast<std::int16_t>(d)});
  }
  sim().schedule_at(arrival, [p] { p->rt->receiver_stack(p); });
}

void Runtime::receiver_stack(Parcel* p) {
  auto& dst_node = node(p->dst);
  const sim::TimePoint t2 = dst_node.stack().reserve(dst_node.stack_service(p->msg.size_bytes()));
  sim().schedule_at(t2, [p] { p->rt->hand_off(p); });
}

void Runtime::hand_off(Parcel* p) {
  sim::TimePoint at = sim().now();
  switch (p->handoff.stage) {
    case Handoff::Stage::Mailbox:
      break;
    case Handoff::Stage::RxEngine:
      at = rx_engine(p->dst).reserve(p->handoff.service);
      break;
    case Handoff::Stage::Daemon:
      at = daemon_hop(p->dst, p->handoff.service, p->handoff.latency);
      break;
  }
  deliver_at(at, p);
}

sim::TimePoint Runtime::daemon_hop(int rank, sim::Duration service, sim::Duration latency) {
  sim::SerialResource& d = daemon(rank);
  if (d.busy_until() > sim().now()) {  // backlogged: duplex thrash
    const double penalty = profile_.daemon_duplex_penalty;
    service = sim::from_seconds(service.seconds() * penalty);
    latency = sim::from_seconds(latency.seconds() * penalty);
  }
  return d.reserve_pipelined(service, latency);
}

sim::Duration Runtime::rto(const Parcel& p) const noexcept {
  const int shift = std::min(p.attempt - 1, kMaxBackoffShift);
  const sim::Duration backed_off = p.rto_base * (std::int64_t{1} << shift);
  // Absolute cap, but never below one base RTO -- a timeout shorter than
  // the round trip itself would retransmit unconditionally.
  return std::min(backed_off, std::max(sim::milliseconds(500), p.rto_base));
}

void Runtime::transmit_attempt(Parcel* p) {
  if (p->completed) {  // a late ack landed after this was scheduled
    unref(p);
    return;
  }
  if (p->attempt >= kMaxAttempts) {
    throw TransportFailure("reliable transport: message " + std::to_string(p->seq) +
                           " on link " + std::to_string(p->src) + "->" +
                           std::to_string(p->dst) + " exceeded " +
                           std::to_string(kMaxAttempts) + " transmission attempts");
  }
  ++p->attempt;
  auto& network = cluster_.network();
  const net::NodeId src_node = node_of(p->src);
  const net::NodeId dst_node = node_of(p->dst);
  const net::Delivery d =
      p->chunked ? network.transmit_chunked(src_node, dst_node, p->bytes, *p->chunked)
                 : network.transmit(src_node, dst_node, p->bytes);
  p->deadline = sim().now() + rto(*p);
  if (trace::active()) {
    if (!d.dropped) {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = p->bytes,
                   .aux0 = d.arrival.ns,
                   .aux1 = p->attempt,
                   .id = p->msg.trace_id,
                   .kind = trace::Kind::MsgWire,
                   .rank = static_cast<std::int16_t>(src_node),
                   .peer = static_cast<std::int16_t>(dst_node)});
    }
  }

  // The event queue has no erase, so a timer armed "just in case" would pop
  // as a clock-holding no-op even after an ack cancels it. Instead the
  // kernel -- which already knows this frame's fate from the Delivery --
  // arms a retransmission only on paths where no ack can come back (drop,
  // corruption) or where the ack itself is known lost/late (send_ack). The
  // *timing* is exactly what a real timeout-driven sender would produce;
  // only the pointless no-op events are skipped.
  if (d.dropped) {
    ++transport_[static_cast<std::size_t>(p->src)].drops_seen;
    if (trace::active()) {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = p->bytes,
                   .aux0 = p->attempt,
                   .id = p->seq,
                   .kind = trace::Kind::FrameDrop,
                   .rank = static_cast<std::int16_t>(src_node),
                   .peer = static_cast<std::int16_t>(dst_node)});
    }
    arm_retransmit(p, p->deadline);
    unref(p);
    return;
  }
  // The frame carries the wire's corruption verdict instead of a payload
  // CRC: the wire never alters a payload byte (`Payload` points at const
  // bytes), so a receiver-side checksum could only re-derive this flag.
  const bool corrupted = d.corrupted;
  ++p->refs;
  sim().schedule_at(d.arrival, [p, corrupted] { p->rt->on_data_frame(p, corrupted); });
  if (d.duplicated) {
    ++p->refs;
    sim().schedule_at(d.dup_arrival, [p, corrupted] { p->rt->on_data_frame(p, corrupted); });
  }
  if (corrupted) {
    // The receiver will reject both copies and stay silent.
    arm_retransmit(p, p->deadline);
  }
  unref(p);
}

void Runtime::arm_retransmit(Parcel* p, sim::TimePoint at) {
  const sim::TimePoint when = std::max(at, sim().now());
  const int armed_for = p->attempt;
  ++p->refs;
  sim().schedule_at(when, [p, armed_for] { p->rt->on_retransmit_timer(p, armed_for); });
}

void Runtime::on_retransmit_timer(Parcel* p, int armed_for) {
  // Superseded if an ack completed the flight, or another event (a second
  // lost ack for the same attempt) already retransmitted it.
  if (p->completed || p->attempt != armed_for) {
    unref(p);
    return;
  }
  ++transport_[static_cast<std::size_t>(p->src)].retransmits;
  if (trace::active()) {
    trace::emit({.t_ns = sim().now().ns,
                 .bytes = p->bytes,
                 .aux0 = armed_for,
                 .id = p->seq,
                 .kind = trace::Kind::Retransmit,
                 .rank = static_cast<std::int16_t>(node_of(p->src)),
                 .peer = static_cast<std::int16_t>(node_of(p->dst))});
  }
  transmit_attempt(p);
}

void Runtime::on_data_frame(Parcel* p, bool corrupted) {
  if (corrupted) {
    ++transport_[static_cast<std::size_t>(p->dst)].corrupt_rejected;
    if (trace::active()) {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = p->bytes,
                   .id = p->seq,
                   .kind = trace::Kind::CorruptReject,
                   .rank = static_cast<std::int16_t>(node_of(p->dst)),
                   .peer = static_cast<std::int16_t>(node_of(p->src))});
    }
    unref(p);
    return;  // no ack; the sender's retransmission timer is already armed
  }
  RxLink& ls = rx_link(p->src, p->dst);
  if (p->seq < ls.rx_next || ls.rx_held.contains(p->seq)) {
    // Duplicate (wire duplication or a spurious retransmission). Re-ack so
    // a sender that missed the first ack stops resending.
    ++transport_[static_cast<std::size_t>(p->dst)].dup_discarded;
    if (trace::active()) {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = p->bytes,
                   .id = p->seq,
                   .kind = trace::Kind::DupDiscard,
                   .rank = static_cast<std::int16_t>(node_of(p->dst)),
                   .peer = static_cast<std::int16_t>(node_of(p->src))});
    }
    send_ack(p);
    unref(p);
    return;
  }
  ++p->refs;  // the reorder buffer's
  ls.rx_held.emplace(p->seq, p);
  while (!ls.rx_held.empty() && ls.rx_held.begin()->first == ls.rx_next) {
    Parcel* ready = ls.rx_held.begin()->second;
    ls.rx_held.erase(ls.rx_held.begin());
    ++ls.rx_next;
    release_to_receiver(ready);  // hands the reorder buffer's reference on
  }
  send_ack(p);
  unref(p);
}

void Runtime::release_to_receiver(Parcel* p) {
  auto& dst_node = node(p->dst);
  const sim::TimePoint t2 = dst_node.stack().reserve(dst_node.stack_service(p->bytes));
  sim().schedule_at(t2, [p] { p->rt->hand_off(p); });
}

void Runtime::send_ack(Parcel* p) {
  auto& network = cluster_.network();
  // The ack is a real frame on the reverse link: it contends for the wire
  // and is subject to the same fault plan as data.
  const net::Delivery a = network.transmit(node_of(p->dst), node_of(p->src), kAckBytes);
  if (a.dropped || a.corrupted) {
    // Lost ack (the sender rejects a corrupted ack, so it is as good as
    // dropped). Charged to this rank: it transmitted the frame the wire ate.
    ++transport_[static_cast<std::size_t>(p->dst)].drops_seen;
    if (trace::active()) {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = kAckBytes,
                   .aux0 = p->attempt,
                   .id = p->seq,
                   .kind = trace::Kind::FrameDrop,
                   .rank = static_cast<std::int16_t>(node_of(p->dst)),
                   .peer = static_cast<std::int16_t>(node_of(p->src))});
    }
    arm_retransmit(p, p->deadline);
    return;
  }
  if (a.arrival > p->deadline) {
    // The ack will land after the timeout: a real sender retransmits
    // spuriously at the deadline (the receiver dedups the extra copy).
    arm_retransmit(p, p->deadline);
  }
  ++p->refs;
  sim().schedule_at(a.arrival, [p] {
    p->completed = true;
    p->rt->unref(p);
  });
  // Wire duplication of the ack needs no handling: a second ack for a
  // completed flight is a no-op.
}

void Runtime::deliver_at(sim::TimePoint at, Parcel* p) {
  sim().schedule_at(at, [p] { p->rt->deliver(p); });
}

void Runtime::deliver(Parcel* p) {
  mailbox(p->dst).push(std::move(p->msg));
  unref(p);
}

}  // namespace pdc::mp
