#include "mp/communicator.hpp"

#include <algorithm>
#include <stdexcept>

#include "mp/pack.hpp"
#include "trace/sink.hpp"

namespace pdc::mp {

Communicator::Communicator(Runtime& rt, int rank) : rt_(rt), rank_(rank) {}

std::int64_t Communicator::packets_for(std::int64_t bytes) const noexcept {
  const auto& p = profile();
  if (p.packet_bytes <= 0) return 0;
  return std::max<std::int64_t>(1, (bytes + p.packet_bytes - 1) / p.packet_bytes);
}

sim::Duration Communicator::send_side_cost(std::int64_t bytes) const {
  const auto& p = profile();
  const auto& cpu = rt_.node(rank_).cpu();
  sim::Duration d = p.send_fixed + sim::from_seconds(p.send_copies * cpu.copy(bytes).seconds());
  d += packets_for(bytes) * p.per_packet_send;
  return d;
}

sim::Duration Communicator::daemon_service(std::int64_t bytes) const {
  const auto& p = profile();
  const auto& cpu = rt_.node(rank_).cpu();
  const std::int64_t frags =
      p.daemon_fragment > 0
          ? std::max<std::int64_t>(1, (bytes + p.daemon_fragment - 1) / p.daemon_fragment)
          : 1;
  return p.daemon_fixed + sim::from_seconds(p.daemon_copies * cpu.copy(bytes).seconds()) +
         frags * p.daemon_per_fragment;
}

sim::Duration Communicator::daemon_latency(std::int64_t bytes, sim::Duration service) const {
  // Pipeline-fill latency: route lookup plus one fragment's processing --
  // unless the daemon itself is slower than the wire, in which case the
  // critical path grows by the difference (the wire drains faster than the
  // daemon produces).
  const auto& p = profile();
  const auto& cpu = rt_.node(rank_).cpu();
  const auto& network = rt_.cluster().network();
  const sim::Duration wire = sim::from_seconds(
      static_cast<double>(network.wire_bytes(bytes)) * 8.0 / network.line_rate_bps());
  const sim::Duration fill =
      p.daemon_fixed + p.daemon_per_fragment +
      sim::from_seconds(p.daemon_copies *
                        cpu.copy(std::min(bytes, p.daemon_fragment)).seconds());
  return std::max(fill, service - wire);
}

Handoff Communicator::direct_handoff(int dst, std::int64_t bytes) const {
  const auto& p = profile();
  if (!p.recv_in_background) return {};
  // Express buffer layer: the receive engine drains and reassembles packets
  // concurrently with the application (and the wire).
  const auto& cpu = rt_.node(dst).cpu();
  return {.stage = Handoff::Stage::RxEngine,
          .service = sim::from_seconds(p.recv_copies * cpu.copy(bytes).seconds()) +
                     packets_for(bytes) * p.per_packet_recv};
}

sim::Task<void> Communicator::send(int dst, int tag, Payload payload) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("Communicator::send: bad destination");
  const std::int64_t n = payload ? static_cast<std::int64_t>(payload->size()) : 0;
  const auto& prof = profile();

  std::uint64_t trace_id = 0;
  std::int64_t send_begin_ns = 0;
  if (trace::active()) {
    trace_id = trace::current()->next_msg_id();
    send_begin_ns = sim().now().ns;
    trace::emit({.t_ns = send_begin_ns,
                 .bytes = n,
                 .id = trace_id,
                 .kind = trace::Kind::SendBegin,
                 .rank = trace_node(rank_),
                 .peer = trace_node(dst),
                 .tag = tag});
  }
  // Closes the blocking span at each of send's exits (the blocking shapes
  // differ per tool: see the co_returns below).
  auto emit_send_end = [&] {
    if (trace::active()) {
      trace::emit({.t_ns = sim().now().ns,
                   .bytes = n,
                   .aux1 = send_begin_ns,
                   .id = trace_id,
                   .kind = trace::Kind::SendEnd,
                   .rank = trace_node(rank_),
                   .peer = trace_node(dst),
                   .tag = tag});
    }
  };

  // Application-side processing. With a background tx engine (Express) the
  // application only pays the fixed handoff; the copies/packetisation run
  // on the engine ahead of the wire.
  const sim::Duration app_cost = prof.send_in_background ? prof.send_fixed : send_side_cost(n);
  if (trace::active()) {
    trace::emit({.t_ns = sim().now().ns,
                 .bytes = n,
                 .aux0 = app_cost.ns,
                 .id = trace_id,
                 .kind = trace::Kind::Pack,
                 .rank = trace_node(rank_),
                 .peer = trace_node(dst),
                 .tag = tag});
  }
  co_await sim().delay(app_cost);

  Parcel* p = rt_.take_parcel(
      rank_, dst, Message{rank_, tag, payload ? std::move(payload) : empty_payload(), trace_id});

  if (dst == rank_) {
    // Loopback: one memory copy, no wire.
    const sim::TimePoint at = sim().now() + node().cpu().copy(n);
    rt_.deliver_at(at, p);
    emit_send_end();
    co_return;
  }

  if (prof.send_in_background) {
    const auto& cpu = node().cpu();
    const sim::Duration engine_work =
        sim::from_seconds(prof.send_copies * cpu.copy(n).seconds()) +
        packets_for(n) * prof.per_packet_send;
    const sim::TimePoint e1 = rt_.tx_engine(rank_).reserve(engine_work);
    p->handoff = direct_handoff(dst, n);
    rt_.sim().schedule_at(e1, [p] { p->rt->kernel_transfer(p); });
    // exsend blocks until the buffer layer has packetised the message (the
    // receive side still pipelines with the wire).
    if (prof.blocking_send) co_await sim().delay_until(e1);
    emit_send_end();
    co_return;
  }

  if (prof.via_daemon && route_direct_) {
    // PvmRouteDirect: task-to-task TCP, no daemons, no fragment/ack wire
    // protocol; the send stays asynchronous (buffer handed to the kernel).
    rt_.kernel_transfer(p);
    emit_send_end();
    co_return;
  }

  if (prof.via_daemon) {
    // Hand the buffer to the local pvmd and return (fire-and-forget). The
    // daemon chain: src pvmd -> kernel/wire -> dst pvmd -> mailbox. Each
    // daemon is busy for its full service time (contention under load) but
    // streams fragments onward, so the pipeline advances after the first
    // fragment unless the daemon -- not the wire -- is the bottleneck.
    const sim::Duration service = daemon_service(n);
    const sim::Duration latency = daemon_latency(n, service);
    const sim::TimePoint d1 = rt_.daemon_hop(rank_, service, latency);
    p->handoff = {.stage = Handoff::Stage::Daemon, .service = service, .latency = latency};
    p->chunked = net::ChunkProtocol{.chunk_bytes = prof.daemon_fragment,
                                    .ack_bytes = 64,
                                    .turnaround = sim::microseconds(250)};
    rt_.sim().schedule_at(d1, [p] { p->rt->kernel_transfer(p); });
    emit_send_end();
    co_return;  // pvm_send does not wait for the wire
  }

  // Direct route (p4, Express).
  p->handoff = direct_handoff(dst, n);
  const sim::TimePoint t1 = rt_.kernel_transfer(p);
  if (prof.blocking_send) co_await sim().delay_until(t1);
  emit_send_end();
}

sim::Task<Message> Communicator::recv(int src, int tag) {
  std::int64_t recv_begin_ns = 0;
  if (trace::active()) { recv_begin_ns = sim().now().ns; }
  Message m = co_await rt_.mailbox(rank_).recv(TagSourceMatch{src, tag});
  std::int64_t match_ns = 0;
  if (trace::active()) { match_ns = sim().now().ns; }
  const auto& prof = profile();
  sim::Duration post = prof.recv_fixed;
  if (!prof.recv_in_background) {
    // In-process unpack (PVM XDR decode, p4 buffer copy).
    post += sim::from_seconds(prof.recv_copies * node().cpu().copy(m.size_bytes()).seconds());
  }
  if (trace::active()) {
    trace::emit({.t_ns = match_ns,
                 .bytes = m.size_bytes(),
                 .aux0 = post.ns,
                 .id = m.trace_id,
                 .kind = trace::Kind::Unpack,
                 .rank = trace_node(rank_),
                 .peer = trace_node(m.src),
                 .tag = m.tag});
  }
  co_await sim().delay(post);
  if (trace::active()) {
    trace::emit({.t_ns = sim().now().ns,
                 .bytes = m.size_bytes(),
                 .aux0 = match_ns,
                 .aux1 = recv_begin_ns,
                 .id = m.trace_id,
                 .kind = trace::Kind::RecvEnd,
                 .rank = trace_node(rank_),
                 .peer = trace_node(m.src),
                 .tag = m.tag});
  }
  co_return m;
}

// -- collectives -------------------------------------------------------------

namespace {

/// Brackets one collective call with CollBegin/CollEnd records. Declared as
/// a coroutine local: its destructor runs when the coroutine body exits (on
/// any co_return path), which is exactly the collective's completion time
/// on this rank.
class CollSpan {
 public:
  CollSpan(sim::Simulation& sim, std::int16_t node, trace::CollOp op) noexcept
      : sim_(sim), node_(node), op_(op) {
    if (trace::active()) {
      armed_ = true;
      begin_ns_ = sim_.now().ns;
      trace::emit({.t_ns = begin_ns_,
                   .aux0 = static_cast<std::int64_t>(op_),
                   .kind = trace::Kind::CollBegin,
                   .rank = node_});
    }
  }
  ~CollSpan() {
    if (trace::active()) {
      if (armed_) {
        trace::emit({.t_ns = sim_.now().ns,
                     .aux0 = static_cast<std::int64_t>(op_),
                     .aux1 = begin_ns_,
                     .kind = trace::Kind::CollEnd,
                     .rank = node_});
      }
    }
  }
  CollSpan(const CollSpan&) = delete;
  CollSpan& operator=(const CollSpan&) = delete;

 private:
  sim::Simulation& sim_;
  std::int16_t node_;
  trace::CollOp op_;
  std::int64_t begin_ns_{0};
  bool armed_{false};
};

}  // namespace

sim::Task<void> Communicator::broadcast(int root, Payload& data, int tag) {
  const CollSpan span(sim(), trace_node(rank_), trace::CollOp::Broadcast);
  const int p = size();
  if (p == 1) co_return;
  const auto& prof = profile();
  if (rank_ == root && !data) data = empty_payload();

  if (prof.broadcast_algo == ToolProfile::BroadcastAlgo::SequentialFromRoot) {
    if (rank_ == root) {
      for (int i = 0; i < p; ++i) {
        if (i == root) continue;
        co_await sim().delay(prof.collective_step);
        co_await send(i, tag, data);  // shared payload: refcount bump, no clone
      }
    } else {
      Message m = co_await recv(root, tag);
      data = std::move(m.data);
    }
    co_return;
  }

  // Binomial tree (MPICH-style). Receivers adopt the incoming payload and
  // forward it as-is -- the whole tree shares one buffer in host memory
  // (the simulated copy costs are still billed per hop by send/recv).
  const int rel = (rank_ - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      int src = rank_ - mask;
      if (src < 0) src += p;
      Message m = co_await recv(src, tag);
      data = std::move(m.data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      int dst = rank_ + mask;
      if (dst >= p) dst -= p;
      co_await sim().delay(prof.collective_step);
      co_await send(dst, tag, data);
    }
    mask >>= 1;
  }
}

sim::Task<void> Communicator::broadcast(int root, Bytes& data, int tag) {
  if (size() == 1) co_return;
  Payload pay;
  if (rank_ == root) pay = make_payload(Bytes(data));  // root keeps its buffer
  co_await broadcast(root, pay, tag);
  if (rank_ != root) data = *pay;  // copy out for the owning-buffer API
}

// -- global reduction --------------------------------------------------------

namespace {

/// Combine received elements straight out of the borrowed payload span --
/// no intermediate vector.
template <typename T>
void add_into(std::vector<T>& acc, std::span<const T> other) {
  if (acc.size() != other.size()) {
    throw std::invalid_argument("global_sum: mismatched vector lengths across ranks");
  }
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += other[i];
}

/// Overwrite `v` in place from the payload span (capacity already there).
template <typename T>
void assign_from(std::vector<T>& v, std::span<const T> other) {
  v.assign(other.begin(), other.end());
}

}  // namespace

template <typename T>
sim::Task<void> Communicator::global_sum_impl(std::vector<T>& v) {
  const CollSpan span(sim(), trace_node(rank_), trace::CollOp::GlobalSum);
  const auto& prof = profile();
  switch (prof.reduce_algo) {
    case ToolProfile::ReduceAlgo::Unsupported:
      throw ToolUnsupported(std::string(to_string(rt_.kind())) +
                            " does not provide a global reduction primitive");
    case ToolProfile::ReduceAlgo::GatherBroadcastTree:
      co_await reduce_gather_broadcast(v);
      break;
    case ToolProfile::ReduceAlgo::RecursiveDoubling:
      co_await reduce_recursive_doubling(v);
      break;
  }
}

template <typename T>
sim::Task<void> Communicator::reduce_gather_broadcast(std::vector<T>& v) {
  const int p = size();
  if (p == 1) co_return;
  const auto step = profile().collective_step;
  const auto n = static_cast<double>(v.size());

  // Binomial fan-in with element-wise combine.
  int mask = 1;
  while (mask < p) {
    if (rank_ & mask) {
      co_await sim().delay(step);
      co_await send(rank_ - mask, kTagReduce, pack_vector(v));
      break;
    }
    if (rank_ + mask < p) {
      Message m = co_await recv(rank_ + mask, kTagReduce);
      add_into(v, payload_span<T>(*m.data));
      if constexpr (std::is_floating_point_v<T>) {
        co_await compute_flops(n);
      } else {
        co_await compute_intops(n);
      }
    }
    mask <<= 1;
  }
  // Binomial broadcast of the result from rank 0.
  mask = 1;
  while (mask < p) {
    if (rank_ & mask) {
      Message m = co_await recv(rank_ - mask, kTagReduceBcast);
      assign_from(v, payload_span<T>(*m.data));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rank_ + mask < p) {
      co_await sim().delay(step);
      co_await send(rank_ + mask, kTagReduceBcast, pack_vector(v));
    }
    mask >>= 1;
  }
}

template <typename T>
sim::Task<void> Communicator::reduce_recursive_doubling(std::vector<T>& v) {
  const int p = size();
  if (p == 1) co_return;
  const auto step = profile().collective_step;
  const auto n = static_cast<double>(v.size());

  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int rem = p - pof2;

  // Fold the ranks beyond the largest power of two into the core.
  if (rank_ >= pof2) {
    co_await sim().delay(step);
    co_await send(rank_ - pof2, kTagReduce, pack_vector(v));
  } else if (rank_ < rem) {
    Message m = co_await recv(rank_ + pof2, kTagReduce);
    add_into(v, payload_span<T>(*m.data));
  }

  if (rank_ < pof2) {
    for (int k = 1; k < pof2; k <<= 1) {
      const int partner = rank_ ^ k;
      const int tag = kTagReduce + 2 * k;
      co_await sim().delay(step);
      co_await send(partner, tag, pack_vector(v));
      Message m = co_await recv(partner, tag);
      add_into(v, payload_span<T>(*m.data));
      if constexpr (std::is_floating_point_v<T>) {
        co_await compute_flops(n);
      } else {
        co_await compute_intops(n);
      }
    }
  }

  // Unfold: the core sends results back to the folded ranks.
  if (rank_ >= pof2) {
    Message m = co_await recv(rank_ - pof2, kTagReduceBcast);
    assign_from(v, payload_span<T>(*m.data));
  } else if (rank_ < rem) {
    co_await sim().delay(step);
    co_await send(rank_ + pof2, kTagReduceBcast, pack_vector(v));
  }
}

sim::Task<void> Communicator::global_sum(std::vector<double>& v) {
  co_await global_sum_impl(v);
}
sim::Task<void> Communicator::global_sum(std::vector<std::int32_t>& v) {
  co_await global_sum_impl(v);
}

// -- compute billing ----------------------------------------------------------

namespace {

void emit_compute(sim::Simulation& sim, std::int16_t node, sim::Duration d) {
  if (trace::active()) {
    trace::emit({.t_ns = sim.now().ns,
                 .aux0 = d.ns,
                 .kind = trace::Kind::Compute,
                 .rank = node});
  }
}

}  // namespace

sim::Task<void> Communicator::compute_flops(double flops) {
  const sim::Duration d = node().cpu().compute(flops);
  emit_compute(sim(), trace_node(rank_), d);
  co_await sim().delay(d);
}
sim::Task<void> Communicator::compute_intops(double ops) {
  const sim::Duration d = node().cpu().int_ops(ops);
  emit_compute(sim(), trace_node(rank_), d);
  co_await sim().delay(d);
}
sim::Task<void> Communicator::compute_copy(std::int64_t bytes) {
  const sim::Duration d = node().cpu().copy(bytes);
  emit_compute(sim(), trace_node(rank_), d);
  co_await sim().delay(d);
}

}  // namespace pdc::mp
