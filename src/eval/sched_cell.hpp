// pdceval -- scheduled-contention evaluation cells.
//
// Where a TplCell measures one primitive on an idle machine, a SchedCell
// measures the *tools under multi-tenant load*: a seeded Poisson stream of
// jobs (each a TPL-style program under one of the three tools) contends for
// one cluster through the pdc::sched planner, and the outcome reports both
// schedule-level metrics (queue wait, utilization, fairness) and per-tool
// goodput -- how much useful node-time each tool's jobs extracted from the
// contended fabric. Cells compose with fault plans exactly like TplCells.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "host/platform.hpp"
#include "mp/tool.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"

namespace pdc::eval {

struct SchedCell {
  host::PlatformId platform{host::PlatformId::ClusterFlat};
  int nodes{64};
  double arrival_rate_hz{2000.0};  ///< jobs per simulated second
  int njobs{24};
  int users{4};
  std::uint64_t seed{1};
  sched::Policy policy{};
  fault::FaultPlan faults{};  ///< disabled: bit-identical to fault-free
};

/// Load-dependent service one tool's jobs received.
struct ToolGoodput {
  mp::ToolKind tool{mp::ToolKind::P4};
  int completed{0};
  double mean_wait_ms{0.0};
  double mean_slowdown{0.0};
  double node_millis{0.0};  ///< ranks x runtime delivered, in node-ms
  double goodput{0.0};      ///< node_millis / makespan_ms (cluster share)
};

struct SchedCellOutcome {
  sched::ScheduleOutcome schedule;
  std::vector<ToolGoodput> per_tool;  ///< catalogue order; only tools present
};

/// The default contended mix: ring, broadcast and global-sum jobs at a few
/// sizes across the three tools (global sum excluded for PVM, as in the
/// paper's TPL grid).
[[nodiscard]] std::vector<sched::JobTemplate> default_job_mix();

/// Run one cell: generate the workload, schedule it, aggregate per-tool
/// goodput.
[[nodiscard]] SchedCellOutcome run_sched_cell(const SchedCell& cell);

}  // namespace pdc::eval
