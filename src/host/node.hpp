// pdceval -- a simulated host.
//
// A node couples a CPU model with a protocol-stack resource: every byte
// entering or leaving the host passes through the kernel networking code,
// which is serial per host (one CPU in every platform the paper uses). The
// stack resource is what makes e.g. an 8-way JPEG collect phase queue up at
// the master even on a crossbar network.
#pragma once

#include <cstdint>

#include "host/cpu_model.hpp"
#include "net/network.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace pdc::host {

class Node {
 public:
  Node(sim::Simulation& sim, net::NodeId id, CpuModel cpu)
      : id_(id), cpu_(std::move(cpu)), stack_(sim) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] net::NodeId id() const noexcept { return id_; }
  [[nodiscard]] const CpuModel& cpu() const noexcept { return cpu_; }
  [[nodiscard]] sim::SerialResource& stack() noexcept { return stack_; }
  [[nodiscard]] const sim::SerialResource& stack() const noexcept { return stack_; }

  /// Kernel cost to push `bytes` through the stack once (crossing + copy).
  [[nodiscard]] sim::Duration stack_service(std::int64_t bytes) const {
    return cpu_.os_crossing + cpu_.copy(bytes);
  }

 private:
  net::NodeId id_;
  CpuModel cpu_;
  sim::SerialResource stack_;
};

}  // namespace pdc::host
