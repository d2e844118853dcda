#include "mp/api.hpp"

#include <memory>
#include <utility>

#include "fault/faulty_network.hpp"

namespace pdc::mp {

namespace {

RunOutcome drive(sim::Simulation& simulation, Runtime& runtime, int nprocs, ToolKind tool,
                 const RankProgram& program) {
  for (int r = 0; r < nprocs; ++r) {
    simulation.spawn(program(runtime.comm(r)),
                     std::string(to_string(tool)) + ".rank" + std::to_string(r));
  }
  const sim::TimePoint end = simulation.run();
  RunOutcome out{
      .elapsed = end - sim::TimePoint::origin(),
      .events = simulation.events_processed(),
      .messages = runtime.messages_sent(),
      .payload_bytes = runtime.payload_bytes_sent(),
      .transport = runtime.transport_total(),
  };
  out.mailbox = runtime.mailbox_total();
  auto& boxes = mailbox_accumulator();
  boxes.pushes += out.mailbox.pushes;
  boxes.matches += out.mailbox.matches;
  boxes.items_scanned += out.mailbox.items_scanned;
  boxes.peak_depth_sum += out.mailbox.max_depth;
  return out;
}

}  // namespace

RunOutcome run_spmd_with_profile(host::PlatformId platform, int nprocs, ToolKind label,
                                 const ToolProfile& profile, const RankProgram& program) {
  sim::Simulation simulation;
  host::Cluster cluster(simulation, platform, nprocs);
  Runtime runtime(cluster, label, profile);
  return drive(simulation, runtime, nprocs, label, program);
}

RunOutcome run_spmd(host::PlatformId platform, int nprocs, ToolKind tool,
                    const RankProgram& program) {
  sim::Simulation simulation;
  host::Cluster cluster(simulation, platform, nprocs);
  Runtime runtime(cluster, tool);
  return drive(simulation, runtime, nprocs, tool, program);
}

RunOutcome run_spmd_faulty(host::PlatformId platform, int nprocs, ToolKind tool,
                           const fault::FaultPlan& plan, const RankProgram& program) {
  sim::Simulation simulation;
  host::Cluster cluster(simulation, platform, nprocs);
  auto faulty = std::make_unique<fault::FaultyNetwork>(simulation, cluster.take_network(), plan);
  fault::FaultyNetwork* wire = faulty.get();
  cluster.install_network(std::move(faulty));
  // Built after the swap: the Runtime caches the wire's reliability.
  Runtime runtime(cluster, tool);
  RunOutcome out = drive(simulation, runtime, nprocs, tool, program);
  out.injected = wire->stats();
  auto& acc = transport_accumulator();
  acc.transport += out.transport;
  acc.injected += out.injected;
  return out;
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
