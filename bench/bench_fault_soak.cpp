// Fault soak bench: goodput of the reliable transport as the wire degrades.
//
// For each tool, streams a fixed payload (64 x 8 KB messages, rank 0 -> 1,
// SUN/Ethernet) through FaultyNetwork at increasing drop rates and reports
// simulated elapsed time, goodput, and the transport/injection counters.
// drop = 0 rides the plain fast path (no fault plan, no draws), so the first
// row doubles as the no-overhead baseline.
//
// Everything here is simulated time: rows are bit-reproducible from the
// (seed, FaultPlan) in the table and make good regression anchors.
#include <cstdio>
#include <vector>

#include "fault/plan.hpp"
#include "mp/api.hpp"
#include "mp/pack.hpp"

int main() {
  using namespace pdc;
  using host::PlatformId;
  using mp::ToolKind;

  constexpr int kMessages = 64;
  constexpr std::int64_t kBytes = 8192;
  constexpr double kDropRates[] = {0.0, 0.05, 0.10, 0.20};

  const auto stream_program = [](mp::Communicator& c) -> sim::Task<void> {
    constexpr int kTag = 3;
    if (c.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        co_await c.send(1, kTag, mp::make_payload(mp::Bytes(kBytes, std::byte{0x5A})));
      }
      (void)co_await c.recv(1, kTag + 1);  // final credit: stream fully landed
    } else {
      for (int i = 0; i < kMessages; ++i) (void)co_await c.recv(0, kTag);
      co_await c.send(0, kTag + 1, mp::make_payload(mp::Bytes(8, std::byte{1})));
    }
  };

  std::printf("Reliable-transport soak: %d x %lld B stream, SUN/Ethernet, 2 procs\n",
              kMessages, static_cast<long long>(kBytes));
  std::printf("(corrupt 1%%, duplicate 5%%, reorder 10%% + 1 ms jitter ride along "
              "whenever drop > 0)\n\n");
  std::printf("%-8s %6s | %10s %12s | %7s %7s %7s %7s | %7s\n", "tool", "drop",
              "elapsed_ms", "goodput_MB/s", "retx", "drops", "crc", "dups", "frames");
  std::printf("---------------+-------------------------+--------------------------------+"
              "--------\n");

  const double payload_mb = static_cast<double>(kMessages) * static_cast<double>(kBytes) /
                            (1024.0 * 1024.0);
  for (ToolKind tool : mp::all_tools()) {
    for (double drop : kDropRates) {
      fault::FaultPlan plan;  // drop == 0: disabled plan, plain fast path
      if (drop > 0.0) {
        plan = fault::FaultPlan::uniform(drop, 0.01, 0.05, 0.10, sim::milliseconds(1),
                                         0xB0A7 + static_cast<std::uint64_t>(drop * 100));
      }
      const mp::RunOutcome out =
          mp::run_spmd(PlatformId::SunEthernet, 2, tool, stream_program, plan);
      const double ms = out.elapsed.millis();
      const double goodput = ms > 0.0 ? payload_mb / (ms / 1000.0) : 0.0;
      std::printf("%-8s %5.0f%% | %10.2f %12.3f | %7lld %7lld %7lld %7lld | %7lld\n",
                  mp::to_string(tool), drop * 100.0, ms, goodput,
                  static_cast<long long>(out.transport.retransmits),
                  static_cast<long long>(out.transport.drops_seen),
                  static_cast<long long>(out.transport.corrupt_rejected),
                  static_cast<long long>(out.transport.dup_discarded),
                  static_cast<long long>(out.injected.frames));
    }
    std::printf("\n");
  }
  return 0;
}
