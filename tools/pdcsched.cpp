// pdceval -- pdcsched: run one multi-tenant scheduling cell and report
// per-job and per-tool outcomes.
//
//   pdcsched --platform flat --nodes 64 --jobs 24 --rate 2000 --seed 1
//   pdcsched --platform fattree --nodes 256 --policy fifo --jobs 32
//   pdcsched --platform dragonfly --nodes 128 --aging 10 --drop 0.02
//
// The schedule is bit-deterministic from the flags alone: the same command
// prints the same table on every run.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cell_args.hpp"
#include "eval/sched_cell.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "pdcsched: schedule a seeded job stream on one simulated cluster\n"
               "  --platform flat|fattree|dragonfly   fabric (default flat)\n"
               "  --nodes N                           cluster size (default 64)\n"
               "  --jobs N                            jobs to generate (default 24)\n"
               "  --rate R                            arrivals per simulated second, > 0 (default 2000)\n"
               "  --users N                           submitting users (default 4)\n"
               "  --seed S                            workload seed (default 1)\n"
               "  --policy backfill|fifo              planner (default backfill)\n"
               "  --aging P                           priority points per queued second (>= 0)\n"
               "  --drop R                            uniform frame drop rate in [0, 1)\n"
               "  --per-job                           print the per-job table\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  pdc::eval::SchedCell cell;
  bool per_job = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--platform") {
      // The shared parser knows all nine platform names; a scheduling cell
      // only makes sense on a cluster fabric.
      ok = pdc::tools::parse_platform(value(), cell.platform) &&
           pdc::tools::is_cluster_platform(cell.platform);
    } else if (pdc::tools::parse_sched_flag(arg, value, cell, ok)) {
    } else if (arg == "--seed") ok = pdc::tools::parse_seed(value(), cell.seed);
    else if (arg == "--drop") {
      double drop = 0.0;
      ok = pdc::tools::parse_fault_rate(value(), drop);
      cell.faults = pdc::fault::FaultPlan::uniform(drop);
    } else if (arg == "--per-job") per_job = true;
    else {
      std::fprintf(stderr, "pdcsched: unknown option %s\n", arg.c_str());
      usage(2);
    }
    if (!ok) {
      std::fprintf(stderr, "pdcsched: bad value for %s\n", arg.c_str());
      usage(2);
    }
  }

  const pdc::eval::SchedCellOutcome out = pdc::eval::run_sched_cell(cell);
  const pdc::sched::ScheduleOutcome& s = out.schedule;

  std::printf("pdcsched: %s, %d nodes, %d jobs @ %.0f/s, seed %llu, %s%s\n",
              pdc::host::to_string(cell.platform), cell.nodes, cell.njobs,
              cell.arrival_rate_hz, static_cast<unsigned long long>(cell.seed),
              cell.policy.backfill ? "backfill" : "fifo",
              cell.faults.enabled() ? ", faulty wire" : "");
  std::printf("  completed %d  rejected %d  makespan %.3f ms  utilization %.1f%%  fairness %.3f\n",
              s.completed, s.rejected, s.makespan.millis(), 100.0 * s.utilization, s.fairness);
  std::printf("  events %llu  messages %llu  payload %llu B\n",
              static_cast<unsigned long long>(s.events),
              static_cast<unsigned long long>(s.messages),
              static_cast<unsigned long long>(s.payload_bytes));
  if (s.transport.retransmits + s.transport.drops_seen > 0) {
    std::printf("  transport: %lld retransmits, %lld drops seen, %lld frames injected faulty\n",
                static_cast<long long>(s.transport.retransmits),
                static_cast<long long>(s.transport.drops_seen),
                static_cast<long long>(s.injected.drops + s.injected.flap_drops));
  }

  std::printf("  %-8s %5s %10s %12s %12s %8s\n", "tool", "jobs", "wait(ms)", "slowdown",
              "node-ms", "goodput");
  for (const pdc::eval::ToolGoodput& g : out.per_tool) {
    std::printf("  %-8s %5d %10.3f %12.2f %12.2f %8.2f\n", pdc::mp::to_string(g.tool),
                g.completed, g.mean_wait_ms, g.mean_slowdown, g.node_millis, g.goodput);
  }

  if (per_job) {
    std::printf("  %4s %4s %-8s %5s %5s %10s %10s %10s %s\n", "id", "user", "tool", "ranks",
                "base", "submit(ms)", "wait(ms)", "run(ms)", "state");
    for (const pdc::sched::JobStats& j : s.jobs) {
      const bool done = j.state == pdc::sched::JobState::Completed;
      std::printf("  %4d %4d %-8s %5d %5d %10.3f %10.3f %10.3f %s\n", j.id, j.user,
                  pdc::mp::to_string(j.tool), j.ranks, j.base_node, j.submit.millis(),
                  done ? j.queue_wait().millis() : 0.0, done ? j.run_time().millis() : 0.0,
                  pdc::sched::to_string(j.state));
    }
  }
  return 0;
}
