#include "eval/sched_cell.hpp"

#include <vector>

#include "mp/api.hpp"
#include "mp/communicator.hpp"
#include "mp/message.hpp"

namespace pdc::eval {

namespace {

constexpr int kTag = 64;

/// A job's filler payload: built once with the program, immutable, so every
/// send and broadcast hop of every job run from this template shares it.
[[nodiscard]] mp::Payload filler(std::int64_t bytes) {
  return mp::make_payload(mp::Bytes(static_cast<std::size_t>(bytes), std::byte{0x5A}));
}

/// Ring exchange: every rank passes `bytes` around the ring `rounds` times.
[[nodiscard]] mp::RankProgram ring_program(int rounds, std::int64_t bytes) {
  return [rounds, data = filler(bytes)](mp::Communicator& c) -> sim::Task<void> {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    for (int r = 0; r < rounds; ++r) {
      co_await c.send(next, kTag + r, data);
      (void)co_await c.recv(prev, kTag + r);
    }
  };
}

/// Repeated broadcast from rank 0 (host-node traffic shape).
[[nodiscard]] mp::RankProgram broadcast_program(int rounds, std::int64_t bytes) {
  return [rounds, data = filler(bytes)](mp::Communicator& c) -> sim::Task<void> {
    if (c.size() == 1) co_return;  // as the Bytes& overload: no collective, no trace span
    for (int r = 0; r < rounds; ++r) {
      mp::Payload pay;
      if (c.rank() == 0) pay = data;
      co_await c.broadcast(0, pay, kTag + r);
    }
  };
}

/// Global sum over an int vector (excluded for PVM by the mix builder).
[[nodiscard]] mp::RankProgram global_sum_program(std::int64_t ints) {
  return [ints](mp::Communicator& c) -> sim::Task<void> {
    std::vector<std::int32_t> v(static_cast<std::size_t>(ints), c.rank() + 1);
    co_await c.global_sum(v);
  };
}

}  // namespace

std::vector<sched::JobTemplate> default_job_mix() {
  std::vector<sched::JobTemplate> mix;
  mix.push_back({.name = "ring16.p4",
                 .tool = mp::ToolKind::P4,
                 .ranks = 16,
                 .walltime = sim::milliseconds(20),
                 .weight = 2.0,
                 .program = ring_program(4, 16 * 1024)});
  mix.push_back({.name = "ring8.express",
                 .tool = mp::ToolKind::Express,
                 .ranks = 8,
                 .walltime = sim::milliseconds(10),
                 .weight = 2.0,
                 .program = ring_program(4, 8 * 1024)});
  mix.push_back({.name = "bcast8.pvm",
                 .tool = mp::ToolKind::Pvm,
                 .ranks = 8,
                 .walltime = sim::milliseconds(20),
                 .weight = 2.0,
                 .program = broadcast_program(2, 32 * 1024)});
  mix.push_back({.name = "bcast4.p4",
                 .tool = mp::ToolKind::P4,
                 .ranks = 4,
                 .walltime = sim::milliseconds(5),
                 .weight = 1.0,
                 .program = broadcast_program(4, 16 * 1024)});
  mix.push_back({.name = "gsum8.express",
                 .tool = mp::ToolKind::Express,
                 .ranks = 8,
                 .walltime = sim::milliseconds(5),
                 .weight = 1.0,
                 .program = global_sum_program(4096)});
  mix.push_back({.name = "ring4.pvm",
                 .tool = mp::ToolKind::Pvm,
                 .ranks = 4,
                 .walltime = sim::milliseconds(10),
                 .weight = 1.0,
                 .program = ring_program(2, 4 * 1024)});
  return mix;
}

SchedCellOutcome run_sched_cell(const SchedCell& cell) {
  sched::WorkloadSpec workload{.seed = cell.seed,
                               .arrival_rate_hz = cell.arrival_rate_hz,
                               .njobs = cell.njobs,
                               .users = cell.users,
                               .templates = default_job_mix()};

  SchedCellOutcome out;
  out.schedule = sched::run_schedule(
      sched::ScheduleConfig{.platform = cell.platform,
                            .nodes = cell.nodes,
                            .policy = cell.policy,
                            .faults = cell.faults},
      sched::generate_workload(workload));

  const double makespan_ms = out.schedule.makespan.millis();
  for (const mp::ToolKind tool : mp::all_tools()) {
    ToolGoodput g{.tool = tool};
    double wait_ms = 0.0, slowdown = 0.0;
    for (const sched::JobStats& j : out.schedule.jobs) {
      if (j.tool != tool || j.state != sched::JobState::Completed) continue;
      ++g.completed;
      wait_ms += j.queue_wait().millis();
      slowdown += j.bounded_slowdown();
      g.node_millis += static_cast<double>(j.ranks) * j.run_time().millis();
    }
    if (g.completed == 0) continue;
    g.mean_wait_ms = wait_ms / g.completed;
    g.mean_slowdown = slowdown / g.completed;
    if (makespan_ms > 0.0) g.goodput = g.node_millis / makespan_ms;
    out.per_tool.push_back(g);
  }
  return out;
}

}  // namespace pdc::eval
