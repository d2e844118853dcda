// pdceval -- multi-tenant scheduler job model.
//
// A JobSpec is pure data plus the rank program the job will run once
// placed: who submitted it, when, how many contiguous nodes it wants, how
// long it promises to hold them (the walltime request the conservative
// backfill planner reserves against), and which tool runtime to build for
// it. Everything the planner orders on is integer state, so schedules are
// bit-reproducible from (workload, policy, platform) alone.
#pragma once

#include <cstdint>

#include "mp/api.hpp"
#include "mp/tool.hpp"
#include "sim/time.hpp"

namespace pdc::sched {

using JobId = std::int32_t;

enum class JobState : std::uint8_t {
  Queued,     ///< submitted, waiting for a placement
  Running,    ///< placed; rank programs launched
  Completed,  ///< every rank finished
  Rejected,   ///< infeasible request (e.g. more ranks than the cluster has)
};

[[nodiscard]] constexpr const char* to_string(JobState s) noexcept {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Rejected: return "rejected";
  }
  return "?";
}

/// One job of the open-loop arrival stream. `walltime` is the *requested*
/// reservation width (real schedulers would kill at walltime; here an
/// overrunning job simply keeps its nodes until its ranks finish -- the
/// planner re-reserves around reality at every event, and the launch-time
/// overlap check makes the no-overlap invariant unconditional).
struct JobSpec {
  JobId id{0};
  int user{0};
  sim::TimePoint submit{};
  int ranks{1};
  sim::Duration walltime{};
  std::int64_t priority{0};  ///< base priority; higher runs earlier
  mp::ToolKind tool{mp::ToolKind::P4};
  mp::RankProgram program;
};

/// Scheduling policy knobs. Defaults give priority-ordered conservative
/// backfill with no aging; `backfill = false` degrades to strict FIFO
/// (the first unplaceable job blocks everything behind it).
struct Policy {
  bool backfill{true};
  /// Priority points added per queued second (integer maths:
  /// `priority + aging_per_sec * wait_ns / 1e9`). Zero disables aging; a
  /// positive value bounds starvation -- any queued job eventually outranks
  /// a stream of high-base-priority arrivals.
  std::int64_t aging_per_sec{0};
  /// Simulated cost of launching a placed job (fork/exec, tool start-up).
  /// The effective start delay is max(launch_overhead, network lookahead):
  /// a floor at the fabric's minimum cross-rank latency that every pinned
  /// schedule was computed with.
  sim::Duration launch_overhead{sim::microseconds(50)};
};

/// Per-job outcome record, filled in as the job moves through the states.
struct JobStats {
  JobId id{0};
  int user{0};
  int ranks{0};
  int base_node{-1};  ///< first node of the contiguous placement (-1: never placed)
  mp::ToolKind tool{mp::ToolKind::P4};
  JobState state{JobState::Queued};
  sim::TimePoint submit{};
  sim::TimePoint start{};     ///< rank programs began (includes launch overhead)
  sim::TimePoint complete{};  ///< last rank finished
  mp::TransportStats transport{};  ///< reliability work summed over the job's ranks

  [[nodiscard]] sim::Duration queue_wait() const noexcept { return start - submit; }
  [[nodiscard]] sim::Duration run_time() const noexcept { return complete - start; }

  /// Bounded slowdown: max(1, (wait + run) / max(run, bound)). The bound
  /// keeps near-zero-duration jobs from dominating means, and the outer
  /// clamp keeps a short job that never waited at exactly 1 (Feitelson's
  /// convention).
  [[nodiscard]] double bounded_slowdown(
      sim::Duration bound = sim::milliseconds(1)) const noexcept {
    const double run_ns = static_cast<double>(run_time().ns);
    const double denom =
        run_ns > static_cast<double>(bound.ns) ? run_ns : static_cast<double>(bound.ns);
    if (denom <= 0.0) return 1.0;
    const double s = (static_cast<double>(queue_wait().ns) + run_ns) / denom;
    return s > 1.0 ? s : 1.0;
  }
};

}  // namespace pdc::sched
