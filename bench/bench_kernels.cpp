// Ablation benchmarks for the compute-kernel layer: every fast kernel
// against the naive reference it replaced (kernels::ref, the executable
// spec of the order-preserving contract), plus end-to-end APL cells and a
// host-stats-instrumented app sweep. Regenerate the JSON snapshot with
// `cmake --build build --target bench-json` (writes BENCH_kernels.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <vector>

#include "apps/jpeg/codec.hpp"
#include "eval/apl.hpp"
#include "eval/cell.hpp"
#include "kernels/dct.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/fft.hpp"
#include "kernels/linalg.hpp"
#include "kernels/mc.hpp"
#include "kernels/reference.hpp"
#include "kernels/sort.hpp"
#include "sim/rng.hpp"

namespace {

using namespace pdc;

constexpr std::uint64_t kSeed = 20260706;

// ---------------------------------------------------------------------------
// 8x8 DCT: the JPEG hot loop. Reference calls std::cos 8192x per block.

void fill_block(sim::Rng& rng, double (&b)[8][8]) {
  for (auto& row : b) {
    for (double& v : row) v = rng.next_double() * 256.0 - 128.0;
  }
}

void BM_DctForwardRef(benchmark::State& state) {
  sim::Rng rng(kSeed);
  double in[8][8], out[8][8];
  fill_block(rng, in);
  for (auto _ : state) {
    kernels::ref::forward_dct(in, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DctForwardRef);

void BM_DctForwardKernel(benchmark::State& state) {
  kernels::force_scalar(state.range(0) != 0);
  sim::Rng rng(kSeed);
  double in[8][8], out[8][8];
  fill_block(rng, in);
  for (auto _ : state) {
    kernels::forward_dct(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(kernels::to_string(kernels::active_isa()));
  kernels::force_scalar(false);
}
BENCHMARK(BM_DctForwardKernel)->Arg(1)->Arg(0);  // 1 = forced scalar

void BM_DctInverseRef(benchmark::State& state) {
  sim::Rng rng(kSeed);
  double in[8][8], out[8][8];
  fill_block(rng, in);
  for (auto _ : state) {
    kernels::ref::inverse_dct(in, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DctInverseRef);

void BM_DctInverseKernel(benchmark::State& state) {
  kernels::force_scalar(state.range(0) != 0);
  sim::Rng rng(kSeed);
  double in[8][8], out[8][8];
  fill_block(rng, in);
  for (auto _ : state) {
    kernels::inverse_dct(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(kernels::to_string(kernels::active_isa()));
  kernels::force_scalar(false);
}
BENCHMARK(BM_DctInverseKernel)->Arg(1)->Arg(0);

// ---------------------------------------------------------------------------
// FFT: cached twiddle tables vs per-butterfly recurrence.

void BM_Fft1dRef(benchmark::State& state) {
  sim::Rng rng(kSeed);
  std::vector<std::complex<double>> base(static_cast<std::size_t>(state.range(0)));
  for (auto& c : base) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};
  for (auto _ : state) {
    auto v = base;
    kernels::ref::fft1d(v, false);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Fft1dRef)->Arg(64)->Arg(1024);

void BM_Fft1dKernel(benchmark::State& state) {
  sim::Rng rng(kSeed);
  std::vector<std::complex<double>> base(static_cast<std::size_t>(state.range(0)));
  for (auto& c : base) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};
  for (auto _ : state) {
    auto v = base;
    kernels::fft1d(v, false);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Fft1dKernel)->Arg(64)->Arg(1024);

// ---------------------------------------------------------------------------
// Sort: branchless radix vs std::sort, PSRS-shaped keys.

void BM_SortStd(benchmark::State& state) {
  sim::Rng rng(kSeed);
  std::vector<std::int32_t> base(static_cast<std::size_t>(state.range(0)));
  for (auto& k : base) k = rng.uniform_i32(-1'000'000'000, 1'000'000'000);
  for (auto _ : state) {
    auto v = base;
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_SortStd)->Arg(62'500)->Arg(500'000);

void BM_SortRadix(benchmark::State& state) {
  sim::Rng rng(kSeed);
  std::vector<std::int32_t> base(static_cast<std::size_t>(state.range(0)));
  for (auto& k : base) k = rng.uniform_i32(-1'000'000'000, 1'000'000'000);
  for (auto _ : state) {
    auto v = base;
    kernels::sort_i32(v);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_SortRadix)->Arg(62'500)->Arg(500'000);

// ---------------------------------------------------------------------------
// Monte Carlo: the fused production loop against the reference. (Batching
// the draws measured slower; see EXPERIMENTS.md.)

void BM_McRef(benchmark::State& state) {
  for (auto _ : state) {
    sim::Rng rng(kSeed);
    benchmark::DoNotOptimize(kernels::ref::inv_quad_sum(rng, state.range(0)));
  }
}
BENCHMARK(BM_McRef)->Arg(100'000);

void BM_McKernel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Rng rng(kSeed);
    benchmark::DoNotOptimize(kernels::inv_quad_sum(rng, state.range(0)));
  }
}
BENCHMARK(BM_McKernel)->Arg(100'000);

// ---------------------------------------------------------------------------
// Matmul: (jj, kk) cache blocking vs plain i-k-j.

void BM_MatmulRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(kSeed);
  std::vector<double> a(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  std::vector<double> b(a.size()), c(a.size());
  for (auto& x : a) x = rng.next_double();
  for (auto& x : b) x = rng.next_double();
  for (auto _ : state) {
    kernels::ref::matmul_rows(a.data(), n, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulRef)->Arg(96)->Arg(384);

void BM_MatmulKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(kSeed);
  std::vector<double> a(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  std::vector<double> b(a.size()), c(a.size());
  for (auto& x : a) x = rng.next_double();
  for (auto& x : b) x = rng.next_double();
  for (auto _ : state) {
    kernels::matmul_rows(a.data(), n, b.data(), n, c.data());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulKernel)->Arg(96)->Arg(384);

// ---------------------------------------------------------------------------
// End-to-end: one JPEG APL cell (the workload the paper's Figure 5 sweeps)
// and an app sweep with the host-work split as reported counters.

void BM_JpegAplCell(benchmark::State& state) {
  const eval::AppCell cell{host::PlatformId::AlphaFddi, mp::ToolKind::P4, eval::AppKind::Jpeg,
                           static_cast<int>(state.range(0))};
  const eval::AplConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::app_cell_s(cell, cfg));
  }
}
BENCHMARK(BM_JpegAplCell)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_AppSweepHostStats(benchmark::State& state) {
  std::vector<eval::CellSpec> cells;
  for (eval::AppKind app : eval::all_apps()) {
    for (int procs : {1, 4}) {
      const eval::AppCell cell{host::PlatformId::AlphaFddi, mp::ToolKind::P4, app, procs};
      cells.push_back(eval::CellSpec::of(cell));
    }
  }
  for (auto _ : state) {
    auto s = eval::sweep(cells, 1);
    benchmark::DoNotOptimize(s.data());
  }
  const auto stats = eval::last_sweep_host_stats();
  state.counters["app_share"] = stats.app_share();
  state.counters["kernel_calls_per_sweep"] =
      static_cast<double>(stats.kernel_calls) / static_cast<double>(std::max<std::uint64_t>(
                                                    1, stats.cells / cells.size()));
  state.counters["arena_grows"] = static_cast<double>(stats.arena_grows);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_AppSweepHostStats)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
