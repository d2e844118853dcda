// pdceval -- contention primitives.
//
// `SerialResource` models a device that serves requests one at a time in
// arrival order (a shared Ethernet segment, a single-threaded PVM daemon, a
// host NIC/protocol stack). It uses busy-until semantics: a request arriving
// at `now` with service time `s` completes at max(busy_until, now) + s.
// Because the event loop delivers requests in chronological order, this is
// an exact FIFO M/G/1-style queue without simulating the queue explicitly.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace pdc::sim {

class Simulation;

class SerialResource {
 public:
  explicit SerialResource(Simulation& sim) : sim_(sim) {}

  /// Reserve `service` time on the resource; returns the completion time.
  /// The caller is responsible for `co_await sim.delay_until(t)` if it needs
  /// to block until completion (senders often fire-and-forget instead).
  TimePoint reserve(Duration service);

  /// Reserve with an earliest start in the near future (e.g. a cut-through
  /// receive port whose bytes start arriving one switch latency from now).
  /// Requests are still served in call order, which is FIFO-per-arrival for
  /// all uses in this codebase.
  TimePoint reserve_from(TimePoint earliest, Duration service);

  /// Reserve `service` of busy time but report the pipeline latency point
  /// `start + latency` (latency <= service): downstream stages may consume
  /// the stream before this stage finishes producing it (a store-and-
  /// forward daemon whose per-fragment output overlaps the wire).
  TimePoint reserve_pipelined(Duration service, Duration latency);

  /// Total busy time accumulated (for utilisation reporting).
  [[nodiscard]] Duration busy_time() const noexcept { return busy_accum_; }
  [[nodiscard]] TimePoint busy_until() const noexcept { return busy_until_; }
  [[nodiscard]] std::uint64_t requests() const noexcept { return requests_; }

 private:
  Simulation& sim_;
  TimePoint busy_until_{TimePoint::origin()};
  Duration busy_accum_{Duration::zero()};
  std::uint64_t requests_{0};
};

}  // namespace pdc::sim
