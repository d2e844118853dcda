// pdceval -- Tool Performance Level (TPL) micro-benchmarks (paper Section
// 2.1 / 3.2): the four communication primitives the paper measures, run on
// a simulated platform and reported in milliseconds of simulated time.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/plan.hpp"
#include "host/platform.hpp"
#include "mp/tool.hpp"

namespace pdc::eval {

// Every primitive takes an optional fault plan: a disabled (default) plan
// reproduces the fault-free timings bit-for-bit; an armed plan runs the
// same primitive over a FaultyNetwork with the reliable transport engaged,
// making robustness a measurable grid axis.

/// Round-trip time of a size-`bytes` message between ranks 0 and 1
/// (paper Table 3, "snd/recv timing").
[[nodiscard]] double sendrecv_ms(host::PlatformId platform, mp::ToolKind tool,
                                 std::int64_t bytes, const fault::FaultPlan& faults = {});

/// Time until the slowest of `procs` ranks holds the root's `bytes`-sized
/// message (paper Figure 2).
[[nodiscard]] double broadcast_ms(host::PlatformId platform, mp::ToolKind tool, int procs,
                                  std::int64_t bytes, const fault::FaultPlan& faults = {});

/// `rounds` simultaneous neighbour shifts around a `procs`-rank ring, each
/// message `bytes` long (paper Figure 3, "all nodes send and receive").
[[nodiscard]] double ring_ms(host::PlatformId platform, mp::ToolKind tool, int procs,
                             std::int64_t bytes, int rounds = 4,
                             const fault::FaultPlan& faults = {});

/// Global sum of a vector of `n_integers` int32s across `procs` ranks
/// (paper Figure 4). Returns nullopt if the tool lacks a global operation
/// (PVM, as the paper notes).
[[nodiscard]] std::optional<double> global_sum_ms(host::PlatformId platform, mp::ToolKind tool,
                                                  int procs, std::int64_t n_integers,
                                                  const fault::FaultPlan& faults = {});

/// The message sizes of paper Table 3 / Figures 2-3: 0..64 KB.
[[nodiscard]] const std::vector<std::int64_t>& paper_message_sizes();

}  // namespace pdc::eval
