#include "sched/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/faulty_network.hpp"
#include "mp/api.hpp"
#include "mp/communicator.hpp"
#include "mp/profile.hpp"
#include "trace/sink.hpp"

namespace pdc::sched {

namespace {

/// Topology alignment grain: the unit the placer tries not to straddle.
/// Fat-tree leaf pods hold `arity` hosts; dragonfly groups hold 64; every
/// other catalogued fabric is distance-uniform, so alignment buys nothing.
[[nodiscard]] int placement_grain(host::PlatformId platform) noexcept {
  switch (platform) {
    case host::PlatformId::ClusterFatTree: return 16;
    case host::PlatformId::ClusterDragonfly: return 64;
    default: return 1;
  }
}

}  // namespace

Scheduler::Scheduler(sim::Simulation& sim, host::Cluster& cluster, Policy policy)
    : sim_(sim),
      cluster_(cluster),
      policy_(policy),
      lookahead_(cluster.network().lookahead()),
      grain_(placement_grain(cluster.platform())) {
  if (policy_.launch_overhead < sim::Duration::zero()) {
    throw std::invalid_argument("Scheduler: negative launch overhead");
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::submit(JobSpec spec) {
  auto job = std::make_unique<Job>();
  job->stats.id = spec.id;
  job->stats.user = spec.user;
  job->stats.ranks = spec.ranks;
  job->stats.tool = spec.tool;
  job->stats.submit = spec.submit;
  job->spec = std::move(spec);
  jobs_.push_back(std::move(job));
  const std::size_t idx = jobs_.size() - 1;
  sim_.schedule_at(jobs_.back()->spec.submit, sim::Event{[this, idx] { on_arrival(idx); }});
}

void Scheduler::on_arrival(std::size_t index) {
  Job& job = *jobs_.at(index);
  if (trace::active()) {
    trace::emit({.t_ns = sim_.now().ns,
                 .aux0 = job.spec.ranks,
                 .kind = trace::Kind::SchedSubmit,
                 .rank = static_cast<std::int16_t>(job.spec.user),
                 .tag = job.spec.id});
  }
  if (job.spec.ranks <= 0 || job.spec.ranks > cluster_.size() ||
      job.spec.walltime < sim::Duration::zero()) {
    job.stats.state = JobState::Rejected;
    return;
  }
  queue_.push_back(&job);
  replan();
}

std::int64_t Scheduler::effective_priority(const Job& job, sim::TimePoint now) const noexcept {
  const std::int64_t wait_ns = (now - job.spec.submit).ns;
  // Proportional integer aging (points * wait / 1s), not wait/1s truncated
  // first -- sub-second waits must age too. Fits in 64 bits for any sane
  // aging rate (1e6 pts/s x 1e3 s of wait ~ 1e15).
  const std::int64_t aged = wait_ns > 0 ? policy_.aging_per_sec * wait_ns / 1'000'000'000 : 0;
  return job.spec.priority + aged;
}

sim::Duration Scheduler::reservation_width(const Job& job) const noexcept {
  // A zero-walltime request still holds its nodes for one representable
  // instant, so reservations never degenerate to empty intervals.
  return job.spec.walltime > sim::Duration::zero() ? job.spec.walltime : sim::nanoseconds(1);
}

sim::TimePoint Scheduler::start_time_from(sim::TimePoint now) const noexcept {
  // Launch overhead, floored at the fabric lookahead (the minimum
  // cross-rank latency). The floor is part of the pinned schedule bytes:
  // every SchedCell result and golden was computed with it.
  const sim::Duration d = policy_.launch_overhead > lookahead_ ? policy_.launch_overhead
                                                               : lookahead_;
  return now + d;
}

int Scheduler::best_base(int ranks, sim::TimePoint at, sim::Duration width,
                         const std::vector<Commitment>& commitments) const {
  // Busy node spans overlapping [at, at + width).
  std::vector<std::pair<int, int>> busy;  // [first, last) node
  const sim::TimePoint end = at + width;
  for (const Commitment& c : commitments) {
    if (c.from < end && c.until > at) busy.emplace_back(c.base, c.base + c.count);
  }
  std::sort(busy.begin(), busy.end());

  int best = -1;
  int best_crossings = 0;
  auto consider = [&](int base) {
    const int crossings = (base + ranks - 1) / grain_ - base / grain_;
    if (best < 0 || crossings < best_crossings) {
      best = base;
      best_crossings = crossings;
    }
  };
  auto scan_gap = [&](int lo, int hi) {
    if (hi - lo < ranks) return;
    consider(lo);
    // First grain-aligned base inside the gap (if distinct and it fits):
    // crossing-minimal without enumerating every base.
    const int aligned = ((lo + grain_ - 1) / grain_) * grain_;
    if (aligned != lo && aligned + ranks <= hi) consider(aligned);
  };

  int cursor = 0;
  for (const auto& [lo, hi] : busy) {
    if (lo > cursor) scan_gap(cursor, lo);
    cursor = std::max(cursor, hi);
  }
  scan_gap(cursor, cluster_.size());
  return best;
}

Scheduler::Placement Scheduler::earliest_fit(
    const Job& job, const std::vector<Commitment>& commitments) const {
  const sim::TimePoint now = sim_.now();
  const sim::Duration width = reservation_width(job);

  // Candidate start times: now, plus every commitment expiry. At the
  // latest expiry the cluster is empty, so the search always terminates
  // with a fit (infeasible sizes were rejected at submit).
  std::vector<sim::TimePoint> candidates{now};
  for (const Commitment& c : commitments) {
    if (c.until > now) candidates.push_back(c.until);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  for (const sim::TimePoint t : candidates) {
    const int base = best_base(job.spec.ranks, t, width, commitments);
    if (base >= 0) return Placement{t, base};
  }
  return Placement{now, -1};  // unreachable for accepted jobs
}

void Scheduler::replan() {
  if (queue_.empty()) return;
  const sim::TimePoint now = sim_.now();

  // Priority order: aged priority desc, then (submit, id) -- with flat
  // priorities and no aging this is exactly arrival (FIFO) order.
  std::stable_sort(queue_.begin(), queue_.end(), [&](const Job* a, const Job* b) {
    const std::int64_t pa = effective_priority(*a, now);
    const std::int64_t pb = effective_priority(*b, now);
    if (pa != pb) return pa > pb;
    if (a->spec.submit != b->spec.submit) return a->spec.submit < b->spec.submit;
    return a->spec.id < b->spec.id;
  });

  // Commitments start with reality: every running job holds its nodes from
  // now until its requested end (clamped forward when overrunning -- the
  // planner only ever reasons about the future).
  std::vector<Commitment> commitments;
  commitments.reserve(running_.size() + queue_.size());
  for (const Job* r : running_) {
    sim::TimePoint until = r->stats.start + reservation_width(*r);
    if (until <= now) until = now + sim::nanoseconds(1);
    commitments.push_back(Commitment{r->stats.base_node, r->spec.ranks, now, until});
  }

  std::vector<Job*> still_queued;
  bool blocked = false;  // FIFO mode: the first unplaceable job blocks the rest
  for (Job* j : queue_) {
    if (blocked) {
      still_queued.push_back(j);
      continue;
    }
    const Placement p = earliest_fit(*j, commitments);
    if (p.base >= 0 && p.at == now) {
      launch(*j, p.base);
      commitments.push_back(
          Commitment{p.base, j->spec.ranks, now, now + reservation_width(*j)});
    } else if (policy_.backfill && p.base >= 0) {
      // Conservative reservation: later (lower-priority) jobs must plan
      // around it, so they can only fill gaps -- never delay this job.
      commitments.push_back(
          Commitment{p.base, j->spec.ranks, p.at, p.at + reservation_width(*j)});
      still_queued.push_back(j);
    } else {
      blocked = !policy_.backfill;
      still_queued.push_back(j);
    }
  }
  queue_ = std::move(still_queued);
}

void Scheduler::launch(Job& job, int base) {
  // The planner's decision is re-checked against reality: a placement may
  // never overlap a job that actually holds nodes, whatever the estimates
  // said. This makes the no-overlap invariant unconditional.
  for (const Job* r : running_) {
    if (base < r->stats.base_node + r->spec.ranks && r->stats.base_node < base + job.spec.ranks) {
      throw std::logic_error("Scheduler::launch: placement overlaps running job " +
                             std::to_string(r->spec.id));
    }
  }
  const sim::TimePoint now = sim_.now();
  const sim::TimePoint start = start_time_from(now);
  job.stats.state = JobState::Running;
  job.stats.base_node = base;
  job.stats.start = start;
  job.remaining = job.spec.ranks;
  job.runtime = std::make_unique<mp::Runtime>(
      cluster_, job.spec.tool, mp::tool_profile(job.spec.tool, cluster_.platform()),
      mp::NodeRange{base, job.spec.ranks});
  running_.push_back(&job);
  if (trace::active()) {
    trace::emit({.t_ns = now.ns,
                 .aux0 = base,
                 .aux1 = job.spec.ranks,
                 .kind = trace::Kind::SchedPlace,
                 .rank = static_cast<std::int16_t>(job.spec.user),
                 .tag = job.spec.id});
    trace::emit({.t_ns = start.ns,
                 .aux0 = base,
                 .kind = trace::Kind::SchedStart,
                 .rank = static_cast<std::int16_t>(job.spec.user),
                 .tag = job.spec.id});
  }
  for (int r = 0; r < job.spec.ranks; ++r) {
    sim_.spawn_at(start, job_rank(job, r),
                  "sched.job" + std::to_string(job.spec.id) + ".rank" + std::to_string(r));
  }
}

sim::Task<void> Scheduler::job_rank(Job& job, int rank) {
  co_await job.spec.program(job.runtime->comm(rank));
  rank_finished(job);
}

void Scheduler::rank_finished(Job& job) {
  if (--job.remaining > 0) return;
  job.stats.state = JobState::Completed;
  job.stats.complete = sim_.now();
  if (trace::active()) {
    trace::emit({.t_ns = job.stats.complete.ns,
                 .aux0 = job.stats.start.ns,
                 .aux1 = job.spec.ranks,
                 .kind = trace::Kind::SchedComplete,
                 .rank = static_cast<std::int16_t>(job.spec.user),
                 .tag = job.spec.id});
  }
  running_.erase(std::find(running_.begin(), running_.end(), &job));
  replan();
}

int Scheduler::unfinished() const noexcept {
  int n = 0;
  for (const auto& j : jobs_) {
    n += j->stats.state == JobState::Queued || j->stats.state == JobState::Running;
  }
  return n;
}

ScheduleOutcome Scheduler::harvest() const {
  ScheduleOutcome out;
  out.jobs.reserve(jobs_.size());

  sim::TimePoint last_complete = sim::TimePoint::origin();
  std::int64_t busy_node_ns = 0;
  // Per-user bounded-slowdown sums, keyed by user id (sorted for
  // deterministic iteration; user ids are small ints).
  std::vector<std::pair<int, std::pair<double, int>>> users;  // user -> (sum, n)
  auto user_slot = [&](int user) -> std::pair<double, int>& {
    for (auto& [u, acc] : users) {
      if (u == user) return acc;
    }
    users.emplace_back(user, std::pair<double, int>{0.0, 0});
    return users.back().second;
  };

  for (const auto& j : jobs_) {
    JobStats stats = j->stats;
    if (j->runtime) {
      for (int r = 0; r < j->spec.ranks; ++r) stats.transport += j->runtime->transport_stats(r);
      out.messages += j->runtime->messages_sent();
      out.payload_bytes += j->runtime->payload_bytes_sent();
      out.transport += stats.transport;
    }
    switch (stats.state) {
      case JobState::Completed: {
        ++out.completed;
        last_complete = std::max(last_complete, stats.complete);
        busy_node_ns += static_cast<std::int64_t>(stats.ranks) * stats.run_time().ns;
        auto& [sum, n] = user_slot(stats.user);
        sum += stats.bounded_slowdown();
        ++n;
        break;
      }
      case JobState::Rejected:
        ++out.rejected;
        break;
      default:
        break;
    }
    out.jobs.push_back(std::move(stats));
  }

  out.makespan = last_complete - sim::TimePoint::origin();
  if (out.makespan > sim::Duration::zero() && cluster_.size() > 0) {
    out.utilization = static_cast<double>(busy_node_ns) /
                      (static_cast<double>(cluster_.size()) *
                       static_cast<double>(out.makespan.ns));
  }

  // Jain fairness over per-user mean bounded slowdown: 1 when every user
  // sees the same service quality, 1/n when one user absorbs all the wait.
  std::sort(users.begin(), users.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double sum = 0.0, sum_sq = 0.0;
  int n = 0;
  for (const auto& [u, acc] : users) {
    if (acc.second == 0) continue;
    const double mean = acc.first / acc.second;
    sum += mean;
    sum_sq += mean * mean;
    ++n;
  }
  if (n > 0 && sum_sq > 0.0) out.fairness = (sum * sum) / (n * sum_sq);
  return out;
}

ScheduleOutcome run_schedule(const ScheduleConfig& config, std::vector<JobSpec> jobs) {
  sim::Simulation simulation;
  host::Cluster cluster(simulation, config.platform, config.nodes);
  const fault::FaultyNetwork* wire = fault::install_faults(cluster, config.faults);

  Scheduler scheduler(simulation, cluster, config.policy);
  std::sort(jobs.begin(), jobs.end(), [](const JobSpec& a, const JobSpec& b) {
    return a.submit != b.submit ? a.submit < b.submit : a.id < b.id;
  });
  for (JobSpec& j : jobs) scheduler.submit(std::move(j));
  simulation.run();

  ScheduleOutcome out = scheduler.harvest();
  out.events = simulation.events_processed();
  if (wire) out.injected = wire->stats();
  return out;
}

}  // namespace pdc::sched
