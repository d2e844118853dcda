// pdceval -- deterministic multi-tenant cluster scheduler.
//
// The Scheduler is an actor layered on the simulation kernel: job arrivals
// are ordinary events, placement decisions run inside them, and each rank's
// completion updates scheduler state inline at the end of its coroutine, so
// a schedule is a pure function of its inputs.
//
// Placement model: every job gets a *contiguous* slice [base, base+ranks)
// of the cluster's nodes (a mp::NodeRange), so a node hosts at most one job
// at a time and concurrent jobs interact only through the shared fabric --
// link contention emerges from the network models rather than being
// asserted. The planner is FIFO with optional conservative backfill:
// queued jobs are considered in priority order (base + aging), each either
// launches now or (under backfill) books a reservation against the
// commitments of everything ahead of it, so backfilled jobs can never push
// the head job's planned start later. Bases are chosen
// topology-aware: among feasible gaps at the earliest feasible time, the
// planner prefers placements crossing the fewest topology grains (the
// fabric's Network::placement_grain(): fat-tree pod / dragonfly group),
// then the lowest base.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "host/platform.hpp"
#include "mp/runtime.hpp"
#include "sched/job.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace pdc::sched {

/// Aggregate outcome of one scheduled run.
struct ScheduleOutcome {
  std::vector<JobStats> jobs;  ///< submission order
  sim::Duration makespan{};    ///< last completion (origin-relative)
  double utilization{0.0};     ///< node-seconds used / (cluster x makespan)
  double fairness{1.0};        ///< Jain index over per-user mean bounded slowdown
  int completed{0};
  int rejected{0};
  std::uint64_t events{0};
  std::uint64_t messages{0};
  std::uint64_t payload_bytes{0};
  mp::TransportStats transport{};
  fault::InjectionStats injected{};
};

class Scheduler {
 public:
  /// The cluster must outlive the scheduler; its network must already be
  /// in final shape (fault decorators installed) -- job runtimes cache the
  /// wire's reliability at launch.
  Scheduler(sim::Simulation& sim, host::Cluster& cluster, Policy policy);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register a job; its arrival is scheduled as an event at
  /// `spec.submit`. Call before Simulation::run(), in (submit, id) order so
  /// same-instant arrivals enqueue deterministically.
  void submit(JobSpec spec);

  /// Harvest per-job stats and schedule-level metrics after run(). The
  /// caller layers on driver-level counters (events, injected faults).
  [[nodiscard]] ScheduleOutcome harvest() const;

  /// Queued-or-running job count (diagnostics; conservation checks).
  [[nodiscard]] int unfinished() const noexcept;

 private:
  struct Job {
    JobSpec spec;
    JobStats stats;
    std::unique_ptr<mp::Runtime> runtime;  ///< created at launch
    int remaining{0};                      ///< ranks still running
  };

  /// One occupied-or-reserved span of nodes over a time interval.
  struct Commitment {
    int base{0};
    int count{0};
    sim::TimePoint from{};
    sim::TimePoint until{};
  };

  /// A feasible placement: earliest start plus the chosen base.
  struct Placement {
    sim::TimePoint at{};
    int base{-1};
  };

  void on_arrival(std::size_t index);
  void rank_finished(Job& job);
  void replan();
  void launch(Job& job, int base);
  sim::Task<void> job_rank(Job& job, int rank);

  /// Earliest (time, base) at which `job` fits against `commitments`
  /// (running jobs plus reservations booked so far this replan). `base < 0`
  /// when the job can never fit (callers reject such jobs at submit).
  [[nodiscard]] Placement earliest_fit(const Job& job,
                                       const std::vector<Commitment>& commitments) const;
  /// Best base for `job` over window [at, at+width) against `commitments`,
  /// or -1. Prefers fewest grain crossings, then lowest base.
  [[nodiscard]] int best_base(int ranks, sim::TimePoint at, sim::Duration width,
                              const std::vector<Commitment>& commitments) const;

  [[nodiscard]] std::int64_t effective_priority(const Job& job, sim::TimePoint now) const noexcept;
  [[nodiscard]] sim::Duration reservation_width(const Job& job) const noexcept;
  [[nodiscard]] sim::TimePoint start_time_from(sim::TimePoint now) const noexcept;

  sim::Simulation& sim_;
  host::Cluster& cluster_;
  Policy policy_;
  sim::Duration lookahead_{};  ///< cached: the fabric's cross-rank latency floor
  int grain_{1};               ///< topology alignment grain (pod / group size)
  std::vector<std::unique_ptr<Job>> jobs_;  ///< submission order; stable addresses
  std::vector<Job*> queue_;                 ///< arrived, not yet placed
  std::vector<Job*> running_;               ///< placed, ranks still active
};

/// Driver configuration for run_schedule().
struct ScheduleConfig {
  host::PlatformId platform{host::PlatformId::ClusterFlat};
  int nodes{64};
  Policy policy{};
  fault::FaultPlan faults{};  ///< disabled by default (bit-identical to fault-free)
};

/// Build a cluster, wrap its wire if `config.faults` is armed, run every
/// job to completion and aggregate the outcome. `jobs` need not be sorted.
[[nodiscard]] ScheduleOutcome run_schedule(const ScheduleConfig& config,
                                           std::vector<JobSpec> jobs);

}  // namespace pdc::sched
