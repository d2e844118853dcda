// pdceval example: evaluating a tool that does not exist yet.
//
// The paper's second objective: "serve as a unified platform for PDC tool
// developers for identifying the deficiencies and bottlenecks in existing
// systems and for defining the requirements of future systems."
//
// In 1995 the future system was MPI. Here we define an MPI-like cost
// profile -- direct transport like p4, tree collectives, a proper reduction
// primitive, lower fixed overheads -- and race it against the three
// catalogued tools on the TPL primitives.
#include <cstdio>
#include <vector>

#include "mp/api.hpp"
#include "mp/pack.hpp"

using namespace pdc;

namespace {

mp::ToolProfile mpi_prototype(host::PlatformId platform) {
  // Start from p4 (the closest architecture) and tighten it.
  mp::ToolProfile p = mp::tool_profile(mp::ToolKind::P4, platform);
  p.send_fixed = p.send_fixed / 2;  // leaner matching & buffer management
  p.recv_fixed = p.recv_fixed / 2;
  p.send_copies = 0.5;  // single-copy eager path
  p.recv_copies = 0.3;
  p.collective_step = p.collective_step / 2;
  p.broadcast_algo = mp::ToolProfile::BroadcastAlgo::BinomialTree;
  p.reduce_algo = mp::ToolProfile::ReduceAlgo::RecursiveDoubling;
  return p;
}

double pingpong_ms(host::PlatformId platform, const mp::ToolProfile* custom,
                   mp::ToolKind tool, std::int64_t bytes) {
  auto program = [bytes](mp::Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 1, mp::make_payload(mp::Bytes(static_cast<std::size_t>(bytes))));
      (void)co_await c.recv(1, 2);
    } else {
      mp::Message m = co_await c.recv(0, 1);
      co_await c.send(0, 2, m.data);
    }
  };
  const auto out = custom
                       ? mp::run_spmd_with_profile(platform, 2, tool, *custom, program)
                       : mp::run_spmd(platform, 2, tool, program);
  return out.elapsed.millis();
}

double reduce_ms(host::PlatformId platform, const mp::ToolProfile* custom, mp::ToolKind tool,
                 int procs) {
  auto program = [](mp::Communicator& c) -> sim::Task<void> {
    std::vector<double> v(10000, 1.0);
    if (c.has_global_sum()) co_await c.global_sum(v);
  };
  const auto out = custom
                       ? mp::run_spmd_with_profile(platform, procs, tool, *custom, program)
                       : mp::run_spmd(platform, procs, tool, program);
  return out.elapsed.millis();
}

}  // namespace

int main() {
  constexpr auto kPlatform = host::PlatformId::AlphaFddi;
  const auto mpi = mpi_prototype(kPlatform);

  std::printf("Racing an MPI-like prototype against the 1995 field on %s\n\n",
              host::to_string(kPlatform));
  std::printf("%-14s %14s %14s %16s\n", "tool", "pingpong 1KB", "pingpong 64KB",
              "reduce 10k dbl x8");
  for (auto tool : mp::all_tools()) {
    std::printf("%-14s %12.3fms %12.3fms %14.3fms\n", mp::to_string(tool),
                pingpong_ms(kPlatform, nullptr, tool, 1024),
                pingpong_ms(kPlatform, nullptr, tool, 65536),
                reduce_ms(kPlatform, nullptr, tool, 8));
  }
  std::printf("%-14s %12.3fms %12.3fms %14.3fms\n", "MPI-prototype",
              pingpong_ms(kPlatform, &mpi, mp::ToolKind::P4, 1024),
              pingpong_ms(kPlatform, &mpi, mp::ToolKind::P4, 65536),
              reduce_ms(kPlatform, &mpi, mp::ToolKind::P4, 8));

  std::printf("\n(PVM shows 0ms for reduce: no global operation -- exactly the gap the\n"
              " prototype fills. This is the methodology used as a design tool.)\n");
  return 0;
}
