// pdceval -- fault-injection decorator over any net::Network.
//
// Timing questions (transfer/transfer_chunked) delegate unchanged to the
// wrapped network; fate questions (transmit/transmit_chunked) additionally
// roll the plan's per-link dice. All randomness comes from one private Rng
// seeded via sim::named_stream(plan.seed, "pdc.fault.network"), so enabling
// faults never perturbs app-level RNG draws, and the injected fault
// sequence is a pure function of (plan, sequence of transmit calls) --
// which the single-threaded event loop makes deterministic.
#pragma once

#include <memory>

#include "fault/plan.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace pdc::host {
class Cluster;
}  // namespace pdc::host

namespace pdc::fault {

class FaultyNetwork final : public net::Network {
 public:
  /// Throws std::invalid_argument if any rate is outside [0, 1) or a flap
  /// window has end < start.
  FaultyNetwork(sim::Simulation& sim, std::unique_ptr<net::Network> inner, FaultPlan plan);

  sim::TimePoint transfer(net::NodeId src, net::NodeId dst, std::int64_t bytes) override;
  sim::TimePoint transfer_chunked(net::NodeId src, net::NodeId dst, std::int64_t bytes,
                                  const net::ChunkProtocol& protocol) override;
  net::Delivery transmit(net::NodeId src, net::NodeId dst, std::int64_t bytes) override;
  net::Delivery transmit_chunked(net::NodeId src, net::NodeId dst, std::int64_t bytes,
                                 const net::ChunkProtocol& protocol) override;

  [[nodiscard]] bool reliable() const noexcept override { return !plan_.enabled(); }
  /// Faults only delay or destroy frames (reorder jitter and duplicate lag
  /// are non-negative), so the inner network's horizon remains safe.
  [[nodiscard]] sim::Duration lookahead() const noexcept override { return inner_->lookahead(); }
  [[nodiscard]] std::int32_t placement_grain() const noexcept override {
    return inner_->placement_grain();
  }
  [[nodiscard]] double line_rate_bps() const noexcept override { return inner_->line_rate_bps(); }
  [[nodiscard]] std::int64_t wire_bytes(std::int64_t bytes) const noexcept override {
    return inner_->wire_bytes(bytes);
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const InjectionStats& stats() const noexcept { return stats_; }
  [[nodiscard]] net::Network& inner() noexcept { return *inner_; }

 private:
  /// Decide one frame's fate. Always draws the same number of random values
  /// per frame (when the plan is enabled) so fates of later frames do not
  /// depend on which faults earlier frames happened to suffer.
  net::Delivery afflict(net::NodeId src, net::NodeId dst, sim::TimePoint arrival);

  sim::Simulation* sim_;
  std::unique_ptr<net::Network> inner_;
  FaultPlan plan_;
  sim::Rng rng_;
  InjectionStats stats_{};
};

/// Wrap `cluster`'s network in a FaultyNetwork driven by `plan` and return
/// the decorator (for its injection counts); a disabled plan leaves the
/// network bare and returns nullptr. Call before building any mp::Runtime on
/// the cluster: runtimes cache the wire's reliability.
FaultyNetwork* install_faults(host::Cluster& cluster, const FaultPlan& plan);

}  // namespace pdc::fault
