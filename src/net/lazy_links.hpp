// pdceval -- lazily-constructed link/port resources for large topologies.
//
// A hierarchical fabric for P=4096 hosts has tens of thousands of potential
// link resources, but any one cell only exercises the links its traffic
// actually crosses. Constructing every SerialResource up front would make
// cluster setup O(links) in both time and memory; creating each resource on
// first reservation keeps per-rank state O(active). Creation order does not
// affect results: a SerialResource is born idle, exactly as an eagerly-created
// one would be at first use.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace pdc::net {

/// Sparse pool of SerialResources keyed by a 64-bit link id.
class LazyResourceMap {
 public:
  explicit LazyResourceMap(sim::Simulation& sim) : sim_(sim) {}

  /// The resource for `key`, created on first use.
  [[nodiscard]] sim::SerialResource& at(std::uint64_t key) {
    auto it = links_.find(key);
    if (it == links_.end()) {
      it = links_.emplace(key, std::make_unique<sim::SerialResource>(sim_)).first;
    }
    return *it->second;
  }

  /// Links actually touched so far (tests pin O(active) behaviour on this).
  [[nodiscard]] std::size_t active() const noexcept { return links_.size(); }

 private:
  sim::Simulation& sim_;
  std::unordered_map<std::uint64_t, std::unique_ptr<sim::SerialResource>> links_;
};

/// Dense-by-index pool of per-node port resources, created on first use
/// (a 4096-node cluster running a 2-rank cell materialises 2 ports, not
/// 8192). The vector of null pointers is one allocation at construction.
class LazyPortArray {
 public:
  LazyPortArray(sim::Simulation& sim, std::size_t count) : sim_(sim), ports_(count) {}

  [[nodiscard]] sim::SerialResource& at(std::size_t i) {
    auto& slot = ports_[i];
    if (!slot) slot = std::make_unique<sim::SerialResource>(sim_);
    return *slot;
  }

  [[nodiscard]] std::size_t size() const noexcept { return ports_.size(); }
  [[nodiscard]] std::size_t active() const noexcept {
    std::size_t n = 0;
    for (const auto& p : ports_) n += p != nullptr;
    return n;
  }

 private:
  sim::Simulation& sim_;
  std::vector<std::unique_ptr<sim::SerialResource>> ports_;
};

}  // namespace pdc::net
