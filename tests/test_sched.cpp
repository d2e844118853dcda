// pdceval -- multi-tenant scheduler invariants.
//
// Property matrix over (seed x arrival rate x job mix x fabric) plus
// hand-checked golden scenarios. The strict planner properties (backfill
// never delays the head job, aging bounds starvation) are asserted on the
// flat fabric with pure-delay jobs whose runtimes cannot depend on
// placement or contention; the message-passing mixes pin determinism
// (replay, sweep threads, sim threads, fault soak) where contention is
// real and emergent.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "eval/cell.hpp"
#include "kernels/dispatch.hpp"
#include "mp/api.hpp"
#include "mp/communicator.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sim/rng.hpp"

namespace pdc {
namespace {

using sched::JobSpec;
using sched::JobState;
using sched::JobStats;
using sched::Policy;
using sched::ScheduleConfig;
using sched::ScheduleOutcome;

/// A job that holds its nodes for exactly `d` of simulated time and never
/// touches the network: runtime is placement- and contention-independent,
/// which is what makes the strict planner properties assertable.
[[nodiscard]] mp::RankProgram delay_program(sim::Duration d) {
  return [d](mp::Communicator& c) -> sim::Task<void> { co_await c.sim().delay(d); };
}

[[nodiscard]] JobSpec delay_job(int id, sim::TimePoint submit, int ranks, sim::Duration dur,
                                int user = 0, std::int64_t priority = 0) {
  return JobSpec{.id = id,
                 .user = user,
                 .submit = submit,
                 .ranks = ranks,
                 .walltime = dur,  // exact request: reservations match reality
                 .priority = priority,
                 .tool = mp::ToolKind::P4,
                 .program = delay_program(dur)};
}

/// Random delay-job stream (sizes and durations from a seeded stream).
[[nodiscard]] std::vector<JobSpec> random_delay_jobs(std::uint64_t seed, int njobs, int max_ranks,
                                                     double rate_hz) {
  sim::Rng rng(sim::named_stream(seed, "test.sched.delayjobs"));
  std::vector<JobSpec> jobs;
  sim::TimePoint t{};
  for (int i = 0; i < njobs; ++i) {
    t = t + sim::microseconds(static_cast<std::int64_t>(1e6 / rate_hz * rng.next_double() * 2));
    const int ranks = rng.uniform_i32(1, max_ranks);
    const sim::Duration dur = sim::microseconds(rng.uniform_i32(50, 800));
    jobs.push_back(delay_job(i, t, ranks, dur, i % 3));
  }
  return jobs;
}

void expect_no_overlap(const ScheduleOutcome& out) {
  const auto& jobs = out.jobs;
  for (std::size_t a = 0; a < jobs.size(); ++a) {
    if (jobs[a].state != JobState::Completed) continue;
    for (std::size_t b = a + 1; b < jobs.size(); ++b) {
      if (jobs[b].state != JobState::Completed) continue;
      const bool nodes_meet = jobs[a].base_node < jobs[b].base_node + jobs[b].ranks &&
                              jobs[b].base_node < jobs[a].base_node + jobs[a].ranks;
      const bool times_meet =
          jobs[a].start < jobs[b].complete && jobs[b].start < jobs[a].complete;
      EXPECT_FALSE(nodes_meet && times_meet)
          << "jobs " << jobs[a].id << " and " << jobs[b].id << " overlap";
    }
  }
}

void expect_identical(const ScheduleOutcome& a, const ScheduleOutcome& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].state, b.jobs[i].state);
    EXPECT_EQ(a.jobs[i].base_node, b.jobs[i].base_node);
    EXPECT_EQ(a.jobs[i].start.ns, b.jobs[i].start.ns);
    EXPECT_EQ(a.jobs[i].complete.ns, b.jobs[i].complete.ns);
    EXPECT_EQ(a.jobs[i].transport, b.jobs[i].transport);
  }
  EXPECT_EQ(a.makespan.ns, b.makespan.ns);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.transport, b.transport);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
}

[[nodiscard]] eval::SchedCell mp_cell(host::PlatformId platform, int nodes, double rate,
                                      int njobs, std::uint64_t seed) {
  eval::SchedCell cell;
  cell.platform = platform;
  cell.nodes = nodes;
  cell.arrival_rate_hz = rate;
  cell.njobs = njobs;
  cell.seed = seed;
  return cell;
}

// -- property matrix ---------------------------------------------------------

TEST(SchedProperty, NoOverlapAcrossMatrix) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    for (const double rate : {500.0, 5000.0}) {
      for (const host::PlatformId platform :
           {host::PlatformId::ClusterFlat, host::PlatformId::ClusterFatTree}) {
        // Delay mix: placement-independent runtimes.
        ScheduleOutcome out = sched::run_schedule(
            ScheduleConfig{.platform = platform, .nodes = 64},
            random_delay_jobs(seed, 16, 48, rate));
        EXPECT_EQ(out.completed, 16);
        expect_no_overlap(out);
        // Message-passing mix: contention through the shared fabric.
        const auto cell_out = eval::run_sched_cell(mp_cell(platform, 64, rate, 12, seed));
        EXPECT_EQ(cell_out.schedule.completed, 12);
        expect_no_overlap(cell_out.schedule);
      }
    }
  }
}

TEST(SchedProperty, ConservationEveryJobAccounted) {
  for (const std::uint64_t seed : {3ULL, 4ULL}) {
    for (const bool backfill : {true, false}) {
      ScheduleConfig config{.platform = host::PlatformId::ClusterFlat, .nodes = 32};
      config.policy.backfill = backfill;
      ScheduleOutcome out = sched::run_schedule(config, random_delay_jobs(seed, 20, 32, 2000.0));
      EXPECT_EQ(out.completed + out.rejected, 20);
      for (const JobStats& j : out.jobs) {
        ASSERT_EQ(j.state, JobState::Completed);
        EXPECT_GE(j.start.ns, j.submit.ns);
        EXPECT_GE(j.complete.ns, j.start.ns);
        EXPECT_GE(j.base_node, 0);
        EXPECT_LE(j.base_node + j.ranks, 32);
      }
    }
  }
}

TEST(SchedProperty, BackfillNeverDelaysHeadJob) {
  // Crafted: j0 takes half the machine, j1 (head-of-queue after j0) needs
  // all of it, j2 fits in the hole j0 leaves. Backfill must run j2 early
  // without moving j1's start by a nanosecond.
  const auto scenario = [] {
    std::vector<JobSpec> jobs;
    jobs.push_back(delay_job(0, {}, 4, sim::milliseconds(1)));
    jobs.push_back(delay_job(1, {}, 8, sim::milliseconds(1)));
    jobs.push_back(delay_job(2, {}, 4, sim::microseconds(200)));
    return jobs;
  };
  ScheduleConfig fifo{.platform = host::PlatformId::ClusterFlat, .nodes = 8};
  fifo.policy.backfill = false;
  ScheduleConfig bf = fifo;
  bf.policy.backfill = true;

  const ScheduleOutcome out_fifo = sched::run_schedule(fifo, scenario());
  const ScheduleOutcome out_bf = sched::run_schedule(bf, scenario());
  EXPECT_EQ(out_bf.jobs[1].start.ns, out_fifo.jobs[1].start.ns);  // head untouched
  EXPECT_LT(out_bf.jobs[2].start.ns, out_fifo.jobs[2].start.ns);  // j2 backfilled
  EXPECT_LT(out_bf.makespan.ns, out_fifo.makespan.ns);

  // Random streams: with exact walltimes on a contention-free fabric,
  // conservative backfill starts every job no later than FIFO does.
  for (const std::uint64_t seed : {5ULL, 6ULL}) {
    const ScheduleOutcome f = sched::run_schedule(fifo, random_delay_jobs(seed, 18, 8, 3000.0));
    const ScheduleOutcome b = sched::run_schedule(bf, random_delay_jobs(seed, 18, 8, 3000.0));
    for (std::size_t i = 0; i < f.jobs.size(); ++i) {
      EXPECT_LE(b.jobs[i].start.ns, f.jobs[i].start.ns) << "job " << f.jobs[i].id;
    }
  }
}

TEST(SchedProperty, AgingBoundsStarvation) {
  // A full-machine low-priority job arriving into a stream of half-machine
  // high-priority arrivals that keeps the machine from ever draining: each
  // new arrival outranks the big job and re-plans ahead of it, sliding its
  // reservation forever (classic starvation) unless aging lets its waiting
  // time overtake the stream's base priority.
  const auto scenario = [] {
    std::vector<JobSpec> jobs;
    jobs.push_back(delay_job(0, sim::TimePoint{} + sim::microseconds(150), 8,
                             sim::milliseconds(1), 0, 0));
    for (int i = 0; i < 24; ++i) {
      jobs.push_back(delay_job(1 + i, sim::TimePoint{} + sim::microseconds(300) * i, 4,
                               sim::milliseconds(1), 1, 100));
    }
    return jobs;
  };
  ScheduleConfig starve{.platform = host::PlatformId::ClusterFlat, .nodes = 8};
  ScheduleConfig aged = starve;
  aged.policy.aging_per_sec = 1'000'000;  // +1000 points per queued ms

  const ScheduleOutcome out_starved = sched::run_schedule(starve, scenario());
  const ScheduleOutcome out_aged = sched::run_schedule(aged, scenario());
  // jobs are reported in arrival order; find the big job by id.
  const auto big = [](const ScheduleOutcome& out) {
    return *std::find_if(out.jobs.begin(), out.jobs.end(),
                         [](const JobStats& j) { return j.id == 0; });
  };
  const std::int64_t wait_starved = big(out_starved).queue_wait().ns;
  const std::int64_t wait_aged = big(out_aged).queue_wait().ns;
  EXPECT_LT(wait_aged, wait_starved);
  // Aging overtakes the stream's base priority after ~100us of waiting, so
  // the big job runs within a few jobs' worth of drain, not after all 24.
  EXPECT_LT(wait_aged, sim::milliseconds(4).ns);
  EXPECT_GT(wait_starved, sim::milliseconds(6).ns);
  EXPECT_GT(out_aged.fairness, out_starved.fairness);
}

// -- determinism -------------------------------------------------------------

TEST(SchedDeterminism, BitIdenticalReplay) {
  const eval::SchedCell cell = mp_cell(host::PlatformId::ClusterFatTree, 128, 2500.0, 20, 11);
  const auto a = eval::run_sched_cell(cell);
  const auto b = eval::run_sched_cell(cell);
  expect_identical(a.schedule, b.schedule);
  ASSERT_EQ(a.per_tool.size(), b.per_tool.size());
  for (std::size_t i = 0; i < a.per_tool.size(); ++i) {
    EXPECT_EQ(a.per_tool[i].completed, b.per_tool[i].completed);
    EXPECT_EQ(a.per_tool[i].goodput, b.per_tool[i].goodput);
  }
}

TEST(SchedDeterminism, SweepThreadCountInvariant) {
  std::vector<eval::CellSpec> cells;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    cells.push_back(
        eval::CellSpec::of(mp_cell(host::PlatformId::ClusterFlat, 64, 2000.0, 10, seed)));
  }
  const auto serial = eval::sweep(cells, 1);
  const auto fanned = eval::sweep(cells, 4);
  ASSERT_EQ(serial.size(), fanned.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].status, eval::CellStatus::Ok) << serial[i].error;
    expect_identical(serial[i].sched.schedule, fanned[i].sched.schedule);
  }
}

// -- golden pins -------------------------------------------------------------

// Three jobs on an 8-node flat crossbar, all submitted at t=0, pure delay
// workloads, 50us launch overhead:
//   j0: 4 ranks, 1 ms     j1: 8 ranks, 1 ms     j2: 4 ranks, 0.2 ms
// FIFO runs them strictly in order; backfill slides j2 into the four nodes
// j0 leaves idle. Every instant below is hand-checkable.
TEST(SchedGolden, FlatThreeJobsFifoVsBackfill) {
  const auto scenario = [] {
    std::vector<JobSpec> jobs;
    jobs.push_back(delay_job(0, {}, 4, sim::milliseconds(1)));
    jobs.push_back(delay_job(1, {}, 8, sim::milliseconds(1)));
    jobs.push_back(delay_job(2, {}, 4, sim::microseconds(200)));
    return jobs;
  };
  ScheduleConfig fifo{.platform = host::PlatformId::ClusterFlat, .nodes = 8};
  fifo.policy.backfill = false;
  ScheduleConfig bf = fifo;
  bf.policy.backfill = true;

  const ScheduleOutcome f = sched::run_schedule(fifo, scenario());
  EXPECT_EQ(f.jobs[0].start.ns, 50'000);
  EXPECT_EQ(f.jobs[0].complete.ns, 1'050'000);
  EXPECT_EQ(f.jobs[1].start.ns, 1'100'000);
  EXPECT_EQ(f.jobs[1].complete.ns, 2'100'000);
  EXPECT_EQ(f.jobs[2].start.ns, 2'150'000);
  EXPECT_EQ(f.jobs[2].complete.ns, 2'350'000);
  EXPECT_EQ(f.makespan.ns, 2'350'000);
  EXPECT_DOUBLE_EQ(f.utilization, 12.8e6 / (8 * 2.35e6));

  const ScheduleOutcome b = sched::run_schedule(bf, scenario());
  EXPECT_EQ(b.jobs[0].start.ns, 50'000);
  EXPECT_EQ(b.jobs[1].start.ns, 1'100'000);    // head job: same as FIFO
  EXPECT_EQ(b.jobs[2].start.ns, 50'000);       // backfilled beside j0
  EXPECT_EQ(b.jobs[2].complete.ns, 250'000);
  EXPECT_EQ(b.jobs[2].base_node, 4);
  EXPECT_EQ(b.makespan.ns, 2'100'000);
  EXPECT_DOUBLE_EQ(b.utilization, 12.8e6 / (8 * 2.1e6));
}

// The same shape on a 32-node fat-tree: the placer must keep the 16-rank
// job inside one pod (base 0) and backfill the 8-rank job pod-aligned at
// base 16. Delay jobs never touch the wire, so instants match the flat pin.
TEST(SchedGolden, FatTreePodAlignedBackfill) {
  const auto scenario = [] {
    std::vector<JobSpec> jobs;
    jobs.push_back(delay_job(0, {}, 16, sim::milliseconds(1)));
    jobs.push_back(delay_job(1, {}, 32, sim::milliseconds(1)));
    jobs.push_back(delay_job(2, {}, 8, sim::microseconds(200)));
    return jobs;
  };
  ScheduleConfig config{.platform = host::PlatformId::ClusterFatTree, .nodes = 32};
  const ScheduleOutcome out = sched::run_schedule(config, scenario());
  EXPECT_EQ(out.jobs[0].base_node, 0);
  EXPECT_EQ(out.jobs[0].start.ns, 50'000);
  EXPECT_EQ(out.jobs[1].base_node, 0);
  EXPECT_EQ(out.jobs[1].start.ns, 1'100'000);
  EXPECT_EQ(out.jobs[2].base_node, 16);  // pod-aligned: zero boundary crossings
  EXPECT_EQ(out.jobs[2].start.ns, 50'000);
  EXPECT_EQ(out.makespan.ns, 2'100'000);
}

TEST(SchedGolden, ScalarAndSimdDispatchIdentical) {
  const eval::SchedCell cell = mp_cell(host::PlatformId::ClusterFlat, 64, 2000.0, 12, 9);
  kernels::force_scalar(true);
  const auto scalar = eval::run_sched_cell(cell);
  kernels::force_scalar(false);
  const auto simd = eval::run_sched_cell(cell);
  expect_identical(scalar.schedule, simd.schedule);
}

// -- fault soak --------------------------------------------------------------

TEST(SchedFault, SoakDistributedEqualsSerial) {
  eval::SchedCell cell = mp_cell(host::PlatformId::ClusterFatTree, 256, 3000.0, 24, 13);
  cell.faults = fault::FaultPlan::uniform(0.05);

  const ScheduleOutcome serial = eval::run_sched_cell(cell).schedule;

  // The wire really injected faults and the transport really recovered.
  EXPECT_EQ(serial.completed, 24);
  EXPECT_GT(serial.injected.drops, 0);
  EXPECT_GT(serial.transport.retransmits, 0);

  // Per-job transport stats aggregate exactly to the schedule totals.
  mp::TransportStats sum;
  for (const JobStats& j : serial.jobs) sum += j.transport;
  EXPECT_EQ(sum, serial.transport);
}

// -- edge cases --------------------------------------------------------------

TEST(SchedEdge, ZeroDurationJobs) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 4; ++i) jobs.push_back(delay_job(i, {}, 4, sim::Duration::zero()));
  const ScheduleConfig config{.platform = host::PlatformId::ClusterFlat, .nodes = 16};
  const ScheduleOutcome out = sched::run_schedule(config, jobs);
  EXPECT_EQ(out.completed, 4);
  for (const JobStats& j : out.jobs) {
    EXPECT_EQ(j.complete.ns, j.start.ns);  // zero work, zero span
    EXPECT_GE(j.start.ns, 50'000);         // still pays the launch overhead
  }
  expect_no_overlap(out);
  const ScheduleOutcome replay = sched::run_schedule(config, jobs);
  expect_identical(out, replay);
}

TEST(SchedEdge, OversizedJobRejected) {
  std::vector<JobSpec> jobs;
  jobs.push_back(delay_job(0, {}, 16, sim::milliseconds(1)));  // > 8 nodes
  jobs.push_back(delay_job(1, {}, 8, sim::microseconds(100)));
  const ScheduleConfig config{.platform = host::PlatformId::ClusterFlat, .nodes = 8};
  const ScheduleOutcome out = sched::run_schedule(config, jobs);
  EXPECT_EQ(out.rejected, 1);
  EXPECT_EQ(out.completed, 1);
  EXPECT_EQ(out.jobs[0].state, JobState::Rejected);
  EXPECT_EQ(out.jobs[0].base_node, -1);
  EXPECT_EQ(out.jobs[1].state, JobState::Completed);
  // The rejected job must not have delayed the feasible one.
  EXPECT_EQ(out.jobs[1].start.ns, 50'000);
}

TEST(SchedEdge, SimultaneousArrivalsTieBreakById) {
  // Six full-machine jobs, all submitted at the same instant, handed to
  // the driver in scrambled order: the schedule must serialize them by id,
  // and be byte-identical however the input vector was ordered.
  std::vector<JobSpec> in_order, scrambled;
  for (int i = 0; i < 6; ++i) {
    in_order.push_back(delay_job(i, {}, 8, sim::microseconds(500)));
  }
  for (const int i : {3, 0, 5, 1, 4, 2}) {
    scrambled.push_back(delay_job(i, {}, 8, sim::microseconds(500)));
  }
  const ScheduleConfig config{.platform = host::PlatformId::ClusterFlat, .nodes = 8};
  const ScheduleOutcome a = sched::run_schedule(config, in_order);
  const ScheduleOutcome b = sched::run_schedule(config, scrambled);
  expect_identical(a, b);
  for (std::size_t i = 0; i + 1 < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, static_cast<int>(i));
    EXPECT_LT(a.jobs[i].start.ns, a.jobs[i + 1].start.ns);
  }
}

TEST(SchedEdge, SimultaneousCompletionsDeterministic) {
  // Two half-machine jobs complete at the same instant; two full-machine
  // jobs are queued behind them. The double completion must free the whole
  // machine atomically enough to launch the queued jobs in id order, and
  // identically on every run.
  const auto scenario = [] {
    std::vector<JobSpec> jobs;
    jobs.push_back(delay_job(0, {}, 4, sim::microseconds(400)));
    jobs.push_back(delay_job(1, {}, 4, sim::microseconds(400)));
    jobs.push_back(delay_job(2, {}, 8, sim::microseconds(100)));
    jobs.push_back(delay_job(3, {}, 8, sim::microseconds(100)));
    return jobs;
  };
  const ScheduleConfig config{.platform = host::PlatformId::ClusterFlat, .nodes = 8};
  const ScheduleOutcome a = sched::run_schedule(config, scenario());
  const ScheduleOutcome b = sched::run_schedule(config, scenario());
  expect_identical(a, b);
  EXPECT_EQ(a.jobs[0].complete.ns, a.jobs[1].complete.ns);
  EXPECT_LT(a.jobs[2].start.ns, a.jobs[3].start.ns);
  expect_no_overlap(a);
}

// -- workload generator ------------------------------------------------------

TEST(SchedWorkload, GeneratorDeterministicAndSeedSensitive) {
  sched::WorkloadSpec spec{.seed = 42,
                           .arrival_rate_hz = 1000.0,
                           .njobs = 32,
                           .users = 4,
                           .templates = eval::default_job_mix()};
  const auto a = sched::generate_workload(spec);
  const auto b = sched::generate_workload(spec);
  ASSERT_EQ(a.size(), 32u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<int>(i));
    EXPECT_EQ(a[i].submit.ns, b[i].submit.ns);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].ranks, b[i].ranks);
    if (i > 0) {
      EXPECT_GE(a[i].submit.ns, a[i - 1].submit.ns);
    }
    EXPECT_GE(a[i].user, 0);
    EXPECT_LT(a[i].user, 4);
  }
  spec.seed = 43;
  const auto c = sched::generate_workload(spec);
  int diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += a[i].submit.ns != c[i].submit.ns;
  EXPECT_GT(diff, 0);  // a new seed moves the arrivals
}

}  // namespace
}  // namespace pdc
