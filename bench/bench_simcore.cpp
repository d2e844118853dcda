// Wall-clock performance of the simulator itself (google-benchmark), plus
// the ablations DESIGN.md calls out: coroutine scheduling overhead, the
// event-kind mix (coroutine resumes vs callable events), the event queue's
// fast-lane hit rate, allocation telemetry for the payload/frame pools, and
// parallel sweep scaling.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "eval/cell.hpp"
#include "eval/tpl.hpp"
#include "mp/api.hpp"
#include "mp/buffer_pool.hpp"
#include "mp/pack.hpp"
#include "sim/frame_pool.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulation.hpp"

// Heap-allocation telemetry: count every operator-new in the process so the
// pool ablations can report allocations-per-operation, not just wall time.
static std::atomic<unsigned long long> g_heap_allocs{0};

// GCC cannot see that the replacement operator-new above hands out malloc
// storage, so pairing it with std::free trips -Wmismatched-new-delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace pdc;

unsigned long long heap_allocs() { return g_heap_allocs.load(std::memory_order_relaxed); }

void set_pools_enabled(bool on) {
  mp::BufferPool::local().set_enabled(on);
  sim::FramePool::local().set_enabled(on);
}

// Raw event throughput: how many scheduled events/second the kernel runs.
void BM_EventLoop(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation simu;
    int counter = 0;
    for (int i = 0; i < events; ++i) {
      simu.schedule_at(sim::TimePoint{i}, [&counter] { ++counter; });
    }
    simu.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventLoop)->Arg(1000)->Arg(100000);

// Adversarial event order: times pushed high-to-low so every push misses the
// sorted run and pays a heap sift -- the queue's worst case.
void BM_EventLoopReversed(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation simu;
    int counter = 0;
    for (int i = events; i > 0; --i) {
      simu.schedule_at(sim::TimePoint{i}, [&counter] { ++counter; });
    }
    simu.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventLoopReversed)->Arg(1000)->Arg(100000);

// Coroutine ablation: ping-pong between two processes through a mailbox --
// measures suspend/resume + matching overhead per message. Also reports the
// event queue's fast-lane hit rate (same-time resumes that bypassed both
// the sorted run and the heap).
void BM_CoroutinePingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  double lane_rate = 0.0;
  for (auto _ : state) {
    sim::Simulation simu;
    sim::Mailbox<int> a(simu), b(simu);
    auto ping = [](sim::Mailbox<int>& in, sim::Mailbox<int>& out, int n) -> sim::Task<> {
      for (int i = 0; i < n; ++i) {
        out.push(i);
        (void)co_await in.recv();
      }
    };
    auto pong = [](sim::Mailbox<int>& in, sim::Mailbox<int>& out, int n) -> sim::Task<> {
      for (int i = 0; i < n; ++i) {
        const int v = co_await in.recv();
        out.push(v);
      }
    };
    simu.spawn(ping(a, b, rounds));
    simu.spawn(pong(b, a, rounds));
    simu.run();
    const auto& qs = simu.queue_stats();
    const double total =
        static_cast<double>(qs.lane_pushes + qs.run_pushes + qs.heap_pushes);
    if (total > 0) lane_rate = static_cast<double>(qs.lane_pushes) / total;
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
  state.counters["fast_lane_rate"] = lane_rate;
}
BENCHMARK(BM_CoroutinePingPong)->Arg(1000)->Arg(10000);

// Event-kind-mix ablation: one coroutine ticking through simulated time
// with `Arg` plain callable events scheduled per tick. Arg=0 is the pure
// resume path; higher Args shift the mix toward type-erased callables.
void BM_EventKindMix(benchmark::State& state) {
  const int callables_per_tick = static_cast<int>(state.range(0));
  constexpr int kTicks = 2000;
  for (auto _ : state) {
    sim::Simulation simu;
    long counter = 0;
    auto ticker = [](sim::Simulation& s, long& counter, int per_tick) -> sim::Task<> {
      for (int t = 0; t < kTicks; ++t) {
        for (int c = 0; c < per_tick; ++c) {
          s.schedule_in(sim::Duration{1}, [&counter] { ++counter; });
        }
        co_await s.delay(sim::Duration{2});
      }
    };
    simu.spawn(ticker(simu, counter, callables_per_tick));
    simu.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * kTicks * (1 + callables_per_tick));
}
BENCHMARK(BM_EventKindMix)->Arg(0)->Arg(1)->Arg(4);

// Full-stack message rate: simulated 1 KB messages through a tool runtime.
void BM_ToolMessageThroughput(benchmark::State& state) {
  const auto tool = static_cast<mp::ToolKind>(state.range(0));
  for (auto _ : state) {
    auto program = [](mp::Communicator& c) -> sim::Task<void> {
      constexpr int kN = 200;
      if (c.rank() == 0) {
        for (int i = 0; i < kN; ++i) {
          co_await c.send(1, 7, mp::make_payload(mp::Bytes(1024)));
        }
      } else {
        for (int i = 0; i < kN; ++i) (void)co_await c.recv(0, 7);
      }
    };
    auto out = mp::run_spmd(host::PlatformId::AlphaFddi, 2, tool, program);
    benchmark::DoNotOptimize(out.messages);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_ToolMessageThroughput)
    ->Arg(static_cast<int>(mp::ToolKind::P4))
    ->Arg(static_cast<int>(mp::ToolKind::Pvm))
    ->Arg(static_cast<int>(mp::ToolKind::Express));

// Allocation ablation for the zero-copy payload pipeline: heap allocations
// attributable to ONE 1024-element double global sum at P=16 (Express =
// recursive doubling on the SP-1 switch), measured subtractively -- a run
// with kSums sums minus an identical run with none, so spawn/teardown and
// the app's own working vector cancel out. Arg(0) = pools disabled (the
// pre-pool allocation profile); Arg(1) = pools enabled. Counters report the
// headline number plus both pools' hit rates.
void BM_GlobalSumAllocs(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  constexpr int kSums = 50;
  auto run = [](bool with_sum, int sums) {
    auto program = [with_sum, sums](mp::Communicator& c) -> sim::Task<void> {
      for (int r = 0; r < sums; ++r) {
        std::vector<double> v(1024, static_cast<double>(c.rank()));
        if (with_sum) co_await c.global_sum(v);
        benchmark::DoNotOptimize(v.data());
      }
    };
    (void)mp::run_spmd(host::PlatformId::Sp1Switch, 16, mp::ToolKind::Express, program);
  };

  set_pools_enabled(pooled);
  run(true, 1);  // warm pools and statics out of the measurement
  mp::BufferPool::local().reset_stats();
  sim::FramePool::local().reset_stats();
  const auto base0 = heap_allocs();
  run(false, kSums);
  const auto base1 = heap_allocs();
  run(true, kSums);
  const auto with = heap_allocs() - base1;
  const auto without = base1 - base0;
  const double allocs_per_sum =
      static_cast<double>(with - without) / static_cast<double>(kSums);
  const double buf_hit = mp::BufferPool::local().stats().hit_rate();
  const double frame_hit = sim::FramePool::local().stats().hit_rate();

  for (auto _ : state) {
    run(true, kSums);
    benchmark::ClobberMemory();
  }
  set_pools_enabled(true);

  state.SetItemsProcessed(state.iterations() * kSums);
  state.counters["allocs_per_sum"] = allocs_per_sum;
  state.counters["buffer_pool_hit_rate"] = buf_hit;
  state.counters["frame_pool_hit_rate"] = frame_hit;
}
BENCHMARK(BM_GlobalSumAllocs)->Arg(0)->Arg(1);

// In-place reduce throughput: the recursive-doubling global sum (Express)
// end to end, pools off vs on -- wall-clock counterpart of the allocation
// ablation above.
void BM_ReduceRecursiveDoubling(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  constexpr int kSums = 20;
  set_pools_enabled(pooled);
  for (auto _ : state) {
    auto program = [](mp::Communicator& c) -> sim::Task<void> {
      std::vector<double> v(1024, static_cast<double>(c.rank()));
      for (int r = 0; r < kSums; ++r) co_await c.global_sum(v);
      benchmark::DoNotOptimize(v.data());
    };
    auto out = mp::run_spmd(host::PlatformId::Sp1Switch, 16, mp::ToolKind::Express, program);
    benchmark::DoNotOptimize(out.messages);
  }
  set_pools_enabled(true);
  state.SetItemsProcessed(state.iterations() * kSums);
}
BENCHMARK(BM_ReduceRecursiveDoubling)->Arg(0)->Arg(1);

// Pack/read-path ablation: owning unpack_vector (materialises a fresh
// vector) vs the zero-copy payload_span borrow, over a 1024-double payload.
void BM_PackReadPath(benchmark::State& state) {
  const bool zero_copy = state.range(0) != 0;
  const std::vector<double> v = [] {
    std::vector<double> x(1024);
    std::iota(x.begin(), x.end(), 0.0);
    return x;
  }();
  for (auto _ : state) {
    auto p = mp::pack_vector(v);
    double sum = 0;
    if (zero_copy) {
      for (double d : mp::payload_span<double>(*p)) sum += d;
    } else {
      for (double d : mp::unpack_vector<double>(*p)) sum += d;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PackReadPath)->Arg(0)->Arg(1);

// End-to-end cost of regenerating one Table 3 cell.
void BM_Table3Cell(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval::sendrecv_ms(host::PlatformId::SunEthernet, mp::ToolKind::Pvm, 65536));
  }
}
BENCHMARK(BM_Table3Cell);

// Sweep scaling: the full Table 3 snd/recv grid (64 cells) fanned over
// `Arg` worker threads. Arg=1 is the serial baseline; wall-clock speedup
// tops out at the machine's core count, while results stay bit-identical.
void BM_SweepTable3(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  std::vector<eval::CellSpec> cells;
  for (std::int64_t bytes : eval::paper_message_sizes()) {
    for (mp::ToolKind tool : {mp::ToolKind::Pvm, mp::ToolKind::P4, mp::ToolKind::Express}) {
      for (host::PlatformId p : {host::PlatformId::SunEthernet, host::PlatformId::SunAtmLan,
                                 host::PlatformId::SunAtmWan}) {
        if (tool == mp::ToolKind::Express && p == host::PlatformId::SunAtmWan) continue;
        cells.push_back(
            eval::CellSpec::of(eval::TplCell{eval::Primitive::SendRecv, p, tool, bytes, 2, 0}));
      }
    }
  }
  for (auto _ : state) {
    auto ms = eval::sweep(cells, threads);
    benchmark::DoNotOptimize(ms.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cells.size()));
  // Host-work split of the last sweep: TPL cells are pure simulation (no
  // app kernels), so app_share ~ 0 here; the counter proves the telemetry
  // costs nothing and gives app sweeps a baseline to compare against.
  const auto host = eval::last_sweep_host_stats();
  state.counters["host_app_share"] = host.app_share();
  state.counters["host_cell_us"] =
      host.cells > 0
          ? static_cast<double>(host.wall_ns) / static_cast<double>(host.cells) * 1e-3
          : 0.0;
}
BENCHMARK(BM_SweepTable3)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
