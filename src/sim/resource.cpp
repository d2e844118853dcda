#include "sim/resource.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/simulation.hpp"

namespace pdc::sim {

TimePoint SerialResource::reserve(Duration service) {
  return reserve_from(sim_.now(), service);
}

TimePoint SerialResource::reserve_from(TimePoint earliest, Duration service) {
  if (service < Duration::zero()) {
    throw std::invalid_argument("SerialResource::reserve: negative service time");
  }
  const TimePoint start = std::max({busy_until_, earliest, sim_.now()});
  busy_until_ = start + service;
  busy_accum_ += service;
  ++requests_;
  return busy_until_;
}

TimePoint SerialResource::reserve_pipelined(Duration service, Duration latency) {
  if (latency > service) latency = service;
  const TimePoint start = std::max(busy_until_, sim_.now());
  reserve_from(start, service);
  return start + latency;
}

}  // namespace pdc::sim
