#include "mp/api.hpp"

#include <string>

#include "fault/faulty_network.hpp"

namespace pdc::mp {

RunOutcome run_spmd_with_profile(host::PlatformId platform, int nprocs, ToolKind label,
                                 const ToolProfile& profile, const RankProgram& program,
                                 const fault::FaultPlan& faults) {
  sim::Simulation simulation;
  host::Cluster cluster(simulation, platform, nprocs);
  const fault::FaultyNetwork* wire = fault::install_faults(cluster, faults);
  // Built after the wiring: the Runtime caches the wire's reliability.
  Runtime runtime(cluster, label, profile);
  for (int r = 0; r < nprocs; ++r) {
    simulation.spawn(program(runtime.comm(r)),
                     std::string(to_string(label)) + ".rank" + std::to_string(r));
  }
  const sim::TimePoint end = simulation.run();
  RunOutcome out{
      .elapsed = end - sim::TimePoint::origin(),
      .events = simulation.events_processed(),
      .messages = runtime.messages_sent(),
      .payload_bytes = runtime.payload_bytes_sent(),
      .transport = runtime.transport_total(),
  };
  if (wire) out.injected = wire->stats();
  out.mailbox = runtime.mailbox_total();
  auto& acc = transport_accumulator();
  acc.transport += out.transport;
  acc.injected += out.injected;
  auto& boxes = mailbox_accumulator();
  boxes.pushes += out.mailbox.pushes;
  boxes.matches += out.mailbox.matches;
  boxes.items_scanned += out.mailbox.items_scanned;
  boxes.peak_depth_sum += out.mailbox.max_depth;
  return out;
}

RunOutcome run_spmd(host::PlatformId platform, int nprocs, ToolKind tool,
                    const RankProgram& program, const fault::FaultPlan& faults) {
  return run_spmd_with_profile(platform, nprocs, tool, tool_profile(tool, platform), program,
                               faults);
}

FaultTelemetry& transport_accumulator() noexcept {
  thread_local FaultTelemetry telemetry;
  return telemetry;
}

MailboxTelemetry& mailbox_accumulator() noexcept {
  thread_local MailboxTelemetry telemetry;
  return telemetry;
}

}  // namespace pdc::mp
