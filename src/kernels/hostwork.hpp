// pdceval -- host-work telemetry: how much wall-clock the *applications'
// actual computation* costs, as opposed to the simulation machinery.
//
// Every kernel entry point (DCT strip, FFT, sort, MC batch) charges its
// wall time to a thread-local accumulator via ScopedHostWork. eval::sweep
// snapshots the accumulator around each cell, which yields the per-cell
// split "app compute vs sim/kernel overhead" that a sweep reports
// fleet-wide (eval::last_sweep_host_stats; perfbench's `kernels.share`).
// Timing is at batch granularity -- one steady_clock pair per strip/call,
// never per element -- so the probe itself stays well under 1% of kernel
// time.
#pragma once

#include <chrono>
#include <cstdint>

#include "trace/sink.hpp"

namespace pdc::kernels {

struct HostWork {
  std::uint64_t app_ns{0};    ///< wall time inside app-compute kernels
  std::uint64_t calls{0};     ///< kernel invocations charged
};

/// This thread's accumulated totals (monotonic; consumers diff snapshots).
[[nodiscard]] HostWork host_work() noexcept;

namespace detail {
HostWork& host_work_mut() noexcept;
}  // namespace detail

/// RAII probe: charges the enclosed scope to this thread's app-compute
/// account. Nested probes would double-charge; kernel entry points do not
/// nest (apps call kernels, kernels do not call each other's probed paths).
class ScopedHostWork {
 public:
  ScopedHostWork() noexcept : start_(std::chrono::steady_clock::now()) {}
  ScopedHostWork(const ScopedHostWork&) = delete;
  ScopedHostWork& operator=(const ScopedHostWork&) = delete;
  ~ScopedHostWork() {
    auto& acc = detail::host_work_mut();
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    acc.app_ns += wall_ns;
    ++acc.calls;
    if (trace::active()) {
      // Wall clock, not simulated time: category Host, off by default so
      // the deterministic capture mask never sees it.
      trace::emit({.aux0 = static_cast<std::int64_t>(wall_ns),
                   .kind = trace::Kind::HostWork});
    }
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pdc::kernels
