// pdceval -- top-level convenience API: run an SPMD (or host-node) program
// written against Communicator on a chosen platform with a chosen tool, and
// report the simulated execution time.
#pragma once

#include <cstdint>
#include <functional>

#include "fault/plan.hpp"
#include "host/platform.hpp"
#include "mp/communicator.hpp"
#include "mp/runtime.hpp"
#include "mp/tool.hpp"
#include "sim/task.hpp"

namespace pdc::mp {

/// A per-rank program body. Invoked once per rank; ranks run concurrently
/// in simulated time. The same body serves SPMD and host-node styles (the
/// paper's host-node model is rank 0 acting as host).
using RankProgram = std::function<sim::Task<void>(Communicator&)>;

struct RunOutcome {
  sim::Duration elapsed;            ///< simulated wall time for the whole program
  std::uint64_t events{0};          ///< simulator events processed
  std::uint64_t messages{0};        ///< messages through the fabric
  std::uint64_t payload_bytes{0};   ///< application payload carried
  TransportStats transport{};       ///< reliability work, summed over ranks
  fault::InjectionStats injected{}; ///< faults the wire actually injected
  MailboxStats mailbox{};           ///< matching work, summed over rank mailboxes
};

/// Event-loop threads per run: always 1, since every run is driven by one
/// serial event loop. Kept so reports can record it as provenance.
[[nodiscard]] inline int sim_threads() noexcept { return 1; }

/// Build a cluster of `nprocs` nodes of `platform`, run `program` on every
/// rank under `tool`, drive the simulation to completion and return the
/// simulated elapsed time. An enabled `faults` plan wraps the platform
/// network in a fault::FaultyNetwork and switches the kernel to its reliable
/// transport (sequencing, corrupt-frame rejection, ack/retransmit); a
/// disabled plan, the default, runs on the bare network. Throws whatever the
/// program throws, and TransportFailure if a message exhausts its
/// retransmission budget.
RunOutcome run_spmd(host::PlatformId platform, int nprocs, ToolKind tool,
                    const RankProgram& program, const fault::FaultPlan& faults = {});

/// As above, with an explicit (possibly hypothetical) tool cost profile.
RunOutcome run_spmd_with_profile(host::PlatformId platform, int nprocs, ToolKind label,
                                 const ToolProfile& profile, const RankProgram& program,
                                 const fault::FaultPlan& faults = {});

/// Thread-local accumulator of per-run transport + injection stats, summed
/// over every run_spmd* call on this thread. The sweep runner snapshots it
/// around worker batches to aggregate fleet-wide fault telemetry without
/// touching the deterministic result path.
struct FaultTelemetry {
  TransportStats transport{};
  fault::InjectionStats injected{};
};
[[nodiscard]] FaultTelemetry& transport_accumulator() noexcept;

/// Thread-local accumulator of per-run mailbox matching telemetry, summed
/// over every run_spmd* call on this thread (fault-free ones included).
/// All four fields are plain sums -- `peak_depth_sum` adds each run's peak
/// unmatched depth, rather than taking a max, so sweep deltas stay
/// order-independent and thread-count-independent.
struct MailboxTelemetry {
  std::uint64_t pushes{0};
  std::uint64_t matches{0};
  std::uint64_t items_scanned{0};
  std::uint64_t peak_depth_sum{0};  ///< sum over runs of per-run peak depth

  [[nodiscard]] double scans_per_match() const noexcept {
    return matches > 0 ? static_cast<double>(items_scanned) / static_cast<double>(matches)
                       : 0.0;
  }
};
[[nodiscard]] MailboxTelemetry& mailbox_accumulator() noexcept;

}  // namespace pdc::mp
