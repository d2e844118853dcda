#include "fault/faulty_network.hpp"

#include <stdexcept>
#include <utility>

#include "host/platform.hpp"

namespace pdc::fault {

namespace {

void validate_rates(const LinkFaults& f) {
  const auto ok = [](double r) { return r >= 0.0 && r < 1.0; };
  if (!ok(f.drop_rate) || !ok(f.corrupt_rate) || !ok(f.duplicate_rate) || !ok(f.reorder_rate)) {
    throw std::invalid_argument("fault rates must lie in [0, 1)");
  }
  if (f.reorder_jitter < sim::nanoseconds(0)) {
    throw std::invalid_argument("reorder_jitter must be non-negative");
  }
}

/// Throws std::invalid_argument on a rate outside [0, 1), a negative
/// jitter or a flap window with end < start.
void validate(const FaultPlan& plan) {
  validate_rates(plan.link);
  for (const auto& o : plan.overrides) validate_rates(o.faults);
  for (const auto& w : plan.flaps) {
    if (w.end < w.start) throw std::invalid_argument("flap window must have start <= end");
  }
}

}  // namespace

FaultyNetwork::FaultyNetwork(sim::Simulation& sim, std::unique_ptr<net::Network> inner,
                             FaultPlan plan)
    : sim_(&sim),
      inner_(std::move(inner)),
      plan_(std::move(plan)),
      rng_(sim::named_stream(plan_.seed, "pdc.fault.network")) {
  validate(plan_);
}

sim::TimePoint FaultyNetwork::transfer(net::NodeId src, net::NodeId dst, std::int64_t bytes) {
  return inner_->transfer(src, dst, bytes);
}

sim::TimePoint FaultyNetwork::transfer_chunked(net::NodeId src, net::NodeId dst,
                                               std::int64_t bytes,
                                               const net::ChunkProtocol& protocol) {
  return inner_->transfer_chunked(src, dst, bytes, protocol);
}

net::Delivery FaultyNetwork::transmit(net::NodeId src, net::NodeId dst, std::int64_t bytes) {
  return afflict(src, dst, inner_->transfer(src, dst, bytes));
}

net::Delivery FaultyNetwork::transmit_chunked(net::NodeId src, net::NodeId dst,
                                              std::int64_t bytes,
                                              const net::ChunkProtocol& protocol) {
  return afflict(src, dst, inner_->transfer_chunked(src, dst, bytes, protocol));
}

net::Delivery FaultyNetwork::afflict(net::NodeId src, net::NodeId dst, sim::TimePoint arrival) {
  net::Delivery d{.arrival = arrival, .dup_arrival = {}};
  if (!plan_.enabled()) return d;  // no draws: attaching a dead plan is a no-op

  ++stats_.frames;
  const LinkFaults& f = plan_.faults_for(src, dst);

  // Fixed draw schedule -- five values per frame regardless of outcome --
  // so the random stream position depends only on the frame count.
  const double u_drop = rng_.next_double();
  const double u_corrupt = rng_.next_double();
  const double u_dup = rng_.next_double();
  const double u_reorder = rng_.next_double();
  const double u_jitter = rng_.next_double();

  const sim::TimePoint depart = sim_->now();
  for (const auto& w : plan_.flaps) {
    if (w.covers(src, dst, depart)) {
      ++stats_.flap_drops;
      d.dropped = true;
      return d;
    }
  }

  if (u_drop < f.drop_rate) {
    ++stats_.drops;
    d.dropped = true;
    return d;
  }
  if (u_corrupt < f.corrupt_rate) {
    ++stats_.corruptions;
    d.corrupted = true;
  }
  if (u_reorder < f.reorder_rate && f.reorder_jitter > sim::nanoseconds(0)) {
    ++stats_.reorders;
    const auto span = static_cast<double>(f.reorder_jitter.ns);
    d.arrival = d.arrival + sim::nanoseconds(static_cast<std::int64_t>(u_jitter * span));
  }
  if (u_dup < f.duplicate_rate) {
    ++stats_.duplicates;
    d.duplicated = true;
    // The stale copy trails the (possibly jittered) original by one jitter
    // span, or 1 ms on plans without jitter configured.
    const sim::Duration lag =
        f.reorder_jitter > sim::nanoseconds(0) ? f.reorder_jitter : sim::milliseconds(1);
    d.dup_arrival = d.arrival + lag;
  }
  return d;
}

FaultyNetwork* install_faults(host::Cluster& cluster, const FaultPlan& plan) {
  validate(plan);  // a disabled plan is checked too, though it wires nothing
  if (!plan.enabled()) return nullptr;
  auto faulty =
      std::make_unique<FaultyNetwork>(cluster.simulation(), cluster.take_network(), plan);
  FaultyNetwork* wire = faulty.get();
  cluster.install_network(std::move(faulty));
  return wire;
}

}  // namespace pdc::fault
