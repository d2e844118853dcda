#include "eval/tpl.hpp"

#include <numeric>

#include "mp/api.hpp"
#include "mp/pack.hpp"

namespace pdc::eval {

namespace {

constexpr int kTag = 42;

/// The filler every TPL program sends: built once per run, immutable, so
/// each send and each broadcast hop shares the one buffer.
[[nodiscard]] mp::Payload filler(std::int64_t bytes) {
  return mp::make_payload(mp::Bytes(static_cast<std::size_t>(bytes), std::byte{0x5A}));
}

}  // namespace

double sendrecv_ms(host::PlatformId platform, mp::ToolKind tool, std::int64_t bytes,
                   const fault::FaultPlan& faults) {
  auto program = [data = filler(bytes)](mp::Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, kTag, data);
      (void)co_await c.recv(1, kTag + 1);
    } else {
      mp::Message m = co_await c.recv(0, kTag);
      co_await c.send(0, kTag + 1, m.data);
    }
  };
  return mp::run_spmd(platform, 2, tool, program, faults).elapsed.millis();
}

double broadcast_ms(host::PlatformId platform, mp::ToolKind tool, int procs,
                    std::int64_t bytes, const fault::FaultPlan& faults) {
  auto program = [data = filler(bytes)](mp::Communicator& c) -> sim::Task<void> {
    if (c.size() == 1) co_return;  // as the Bytes& overload: no collective, no trace span
    mp::Payload pay;
    if (c.rank() == 0) pay = data;
    co_await c.broadcast(0, pay, kTag);
  };
  return mp::run_spmd(platform, procs, tool, program, faults).elapsed.millis();
}

double ring_ms(host::PlatformId platform, mp::ToolKind tool, int procs, std::int64_t bytes,
               int rounds, const fault::FaultPlan& faults) {
  auto program = [data = filler(bytes), procs, rounds](mp::Communicator& c) -> sim::Task<void> {
    const int next = (c.rank() + 1) % procs;
    const int prev = (c.rank() + procs - 1) % procs;
    for (int r = 0; r < rounds; ++r) {
      co_await c.send(next, kTag + r, data);
      (void)co_await c.recv(prev, kTag + r);
    }
  };
  return mp::run_spmd(platform, procs, tool, program, faults).elapsed.millis();
}

std::optional<double> global_sum_ms(host::PlatformId platform, mp::ToolKind tool, int procs,
                                    std::int64_t n_integers, const fault::FaultPlan& faults) {
  if (mp::tool_profile(tool, platform).reduce_algo ==
      mp::ToolProfile::ReduceAlgo::Unsupported) {
    return std::nullopt;  // PVM: no global operation (paper Section 3.2.4)
  }
  auto program = [n_integers](mp::Communicator& c) -> sim::Task<void> {
    std::vector<std::int32_t> v(static_cast<std::size_t>(n_integers), c.rank() + 1);
    co_await c.global_sum(v);
  };
  return mp::run_spmd(platform, procs, tool, program, faults).elapsed.millis();
}

const std::vector<std::int64_t>& paper_message_sizes() {
  static const std::vector<std::int64_t> kSizes = {0,    1024,  2048,  4096,
                                                   8192, 16384, 32768, 65536};
  return kSizes;
}

}  // namespace pdc::eval
