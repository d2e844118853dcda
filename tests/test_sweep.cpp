// Sweep-runner tests: the parallel table regeneration must be
// element-for-element identical to the serial loop it replaced, for any
// thread count, and must fail deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "eval/cell.hpp"
#include "eval/paper_data.hpp"
#include "eval/trace_cell.hpp"
#include "fault/plan.hpp"

namespace pdc::eval {
namespace {

using host::PlatformId;
using mp::ToolKind;

TEST(Sweep, ThreadCountResolution) {
  EXPECT_EQ(sweep_threads(3), 3u);
  EXPECT_GE(sweep_threads(0), 1u);  // env var or hardware_concurrency, min 1
}

TEST(Sweep, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;  // not a multiple of any thread count
  for (unsigned threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> hits(kN);
    parallel_for_index(kN, threads, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(Sweep, LowestFailingIndexExceptionWins) {
  // Two cells throw; the rethrown exception must always be the lower
  // index's, independent of which worker reached it first.
  for (int round = 0; round < 5; ++round) {
    try {
      parallel_for_index(64, 4, [](std::size_t i) {
        if (i == 11) throw std::runtime_error("cell 11");
        if (i == 47) throw std::out_of_range("cell 47");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 11");
    }
  }
}

TEST(Sweep, NonUniformNonPowerOfTwoGridIsBitIdenticalAcrossThreads) {
  // The performance-model training grids are deliberately irregular:
  // non-power-of-two sizes and odd process counts, different axes per
  // primitive. The sweep must stay element-for-element bit-identical to
  // the serial walk on those too -- the fitted models inherit their
  // determinism from exactly this guarantee.
  std::vector<CellSpec> cells;
  for (std::int64_t bytes : {768LL, 1536LL, 3072LL, 6144LL, 12288LL}) {
    for (int procs : {2, 3, 5, 6, 7, 12}) {
      cells.push_back(CellSpec::of(TplCell{Primitive::Broadcast, PlatformId::ClusterFatTree,
                                           ToolKind::Express, bytes, procs, 0}));
      cells.push_back(CellSpec::of(TplCell{Primitive::GlobalSum, PlatformId::ClusterDragonfly,
                                           ToolKind::P4, 0, procs, bytes / 4}));
    }
    cells.push_back(CellSpec::of(
        TplCell{Primitive::SendRecv, PlatformId::ClusterFlat, ToolKind::Pvm, bytes, 2, 0}));
  }
  const auto serial = sweep(cells, 1);
  ASSERT_EQ(serial.size(), cells.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].status, CellStatus::Ok) << i;
    EXPECT_GT(serial[i].tpl_ms, 0.0) << i;
  }
  for (unsigned threads : {2u, 3u, 8u}) {
    const auto parallel = sweep(cells, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical, not merely close.
      EXPECT_EQ(parallel[i].tpl_ms, serial[i].tpl_ms)
          << "cell " << i << ", " << threads << " threads";
    }
  }
}

TEST(Sweep, TplGridParallelMatchesSerialElementForElement) {
  // A slice of the Table 3 / Figure 2 grid: every primitive family, the
  // PVM global-sum hole included.
  std::vector<CellSpec> cells;
  for (std::int64_t bytes : {0LL, 1024LL, 16384LL}) {
    for (ToolKind t : {ToolKind::Pvm, ToolKind::P4, ToolKind::Express}) {
      cells.push_back(
          CellSpec::of(TplCell{Primitive::SendRecv, PlatformId::SunEthernet, t, bytes, 2, 0}));
      cells.push_back(
          CellSpec::of(TplCell{Primitive::Broadcast, PlatformId::SunAtmLan, t, bytes, 4, 0}));
      cells.push_back(
          CellSpec::of(TplCell{Primitive::GlobalSum, PlatformId::AlphaFddi, t, 0, 4, 10000}));
    }
  }
  const auto serial = sweep(cells, 1);
  ASSERT_EQ(serial.size(), cells.size());
  for (unsigned threads : {2u, 4u, 7u}) {
    const auto parallel = sweep(cells, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].status, serial[i].status) << i;
      // Bit-identical, not approximately equal: each cell is its own
      // Simulation, so thread count must not perturb a single ULP.
      EXPECT_EQ(parallel[i].tpl_ms, serial[i].tpl_ms)
          << "cell " << i << ", " << threads << " threads";
    }
  }
}

TEST(Sweep, AppGridParallelMatchesSerialElementForElement) {
  AplConfig cfg;
  cfg.image_size = 64;
  cfg.fft_n = 16;
  cfg.mc_samples = 50'000;
  cfg.mc_rounds = 2;
  cfg.sort_keys = 20'000;
  std::vector<CellSpec> cells;
  for (AppKind app : all_apps()) {
    for (int procs : {1, 2, 4}) {
      for (ToolKind t : {ToolKind::Pvm, ToolKind::P4}) {
        cells.push_back(CellSpec::of(AppCell{PlatformId::AlphaFddi, t, app, procs}, cfg));
      }
    }
  }
  const auto serial = sweep(cells, 1);
  const auto parallel = sweep(cells, 4);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].status, CellStatus::Ok) << i;
    EXPECT_EQ(parallel[i].app_s, serial[i].app_s) << "cell " << i;
  }
}

TEST(Sweep, MixedBatchMatchesPerSpecRunCellAtAnyWidth) {
  // One batch of every cell kind and every status: the sweep must write
  // each run_cell result, byte for byte, into its own slot -- a failing
  // cell included -- and never throw.
  AplConfig cfg;
  cfg.image_size = 64;
  cfg.fft_n = 16;
  cfg.mc_samples = 20'000;
  cfg.sort_keys = 10'000;
  SchedCell sched;
  sched.njobs = 6;
  const std::vector<CellSpec> cells = {
      CellSpec::of(TplCell{Primitive::SendRecv, PlatformId::SunEthernet, ToolKind::P4, 1024}),
      CellSpec::of(AppCell{PlatformId::AlphaFddi, ToolKind::Express, AppKind::Psrs, 4}, cfg),
      // PVM has no global sum.
      CellSpec::of(TplCell{Primitive::GlobalSum, PlatformId::AlphaFddi, ToolKind::Pvm, 0, 4, 64}),
      CellSpec::of(sched),
      // More procs than the platform has nodes.
      CellSpec::of(TplCell{Primitive::Broadcast, PlatformId::SunEthernet, ToolKind::P4, 64, 4096}),
      CellSpec::of(AppCell{PlatformId::SunAtmLan, ToolKind::Pvm, AppKind::Jpeg, 2}, cfg),
  };
  std::vector<std::vector<std::byte>> direct;
  for (const CellSpec& c : cells) direct.push_back(encode_result(run_cell(c)));
  for (unsigned threads : {1u, 4u}) {
    const auto results = sweep(cells, threads);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(results[i].type, cells[i].type) << i;
      EXPECT_EQ(encode_result(results[i]), direct[i]) << "cell " << i << " @" << threads;
    }
    EXPECT_EQ(results[0].status, CellStatus::Ok);
    EXPECT_EQ(results[1].status, CellStatus::Ok);
    EXPECT_EQ(results[2].status, CellStatus::Unsupported);
    EXPECT_EQ(results[3].status, CellStatus::Ok);
    EXPECT_EQ(results[4].status, CellStatus::Error);
    EXPECT_FALSE(results[4].error.empty());
    EXPECT_EQ(results[5].status, CellStatus::Ok);
  }
}

TEST(Sweep, PoolTelemetryAggregatesAcrossWorkers) {
  // Any grid that moves payloads should show fleet-wide pool activity, and
  // the steady-state recycling rate should be high: after each worker's
  // first few cells, every payload buffer is a pool hit.
  const std::vector<CellSpec> cells(
      32, CellSpec::of(TplCell{Primitive::GlobalSum, PlatformId::AlphaFddi, ToolKind::Express,
                               0, 4, 4096}));
  (void)sweep(cells, 4);
  const auto stats = last_sweep_pool_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.releases, 0u);
  EXPECT_GT(stats.bytes_recycled, 0u);
  EXPECT_GT(stats.hit_rate(), 0.9);

  // The aggregate is per-run: a fresh sweep resets it.
  const std::vector<CellSpec> one = {
      CellSpec::of(TplCell{Primitive::SendRecv, PlatformId::SunEthernet, ToolKind::P4, 64, 2, 0})};
  (void)sweep(one, 2);
  const auto fresh = last_sweep_pool_stats();
  EXPECT_LT(fresh.hits + fresh.misses, stats.hits + stats.misses);
}

// ---------- satellite: full Table 3 determinism regression -----------------

namespace {

/// The complete Table 3 grid in print order (the same construction as
/// bench_table3_sendrecv), optionally with a fault plan on every cell.
std::vector<CellSpec> table3_cells(const fault::FaultPlan& faults = {}) {
  const ToolKind tools[] = {ToolKind::Pvm, ToolKind::P4, ToolKind::Express};
  const PlatformId platforms[] = {PlatformId::SunEthernet, PlatformId::SunAtmLan,
                                  PlatformId::SunAtmWan};
  std::vector<CellSpec> cells;
  for (std::int64_t bytes : paper_message_sizes()) {
    for (ToolKind tool : tools) {
      for (PlatformId p : platforms) {
        if (tool == ToolKind::Express && p == PlatformId::SunAtmWan) continue;
        cells.push_back(CellSpec::of(TplCell{Primitive::SendRecv, p, tool, bytes, 2, 0, faults}));
      }
    }
  }
  return cells;
}

struct EnvThreads {
  // RAII PDC_SWEEP_THREADS override (tests in this suite run serially).
  explicit EnvThreads(const char* v) { ::setenv("PDC_SWEEP_THREADS", v, 1); }
  ~EnvThreads() { ::unsetenv("PDC_SWEEP_THREADS"); }
};

}  // namespace

TEST(SweepDeterminism, FullTable3TwiceInOneProcessIsBitIdentical) {
  const auto cells = table3_cells();
  const auto first = sweep(cells);
  const auto second = sweep(cells);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i].status, CellStatus::Ok) << i;
    EXPECT_EQ(first[i].tpl_ms, second[i].tpl_ms) << "cell " << i;
  }
}

TEST(SweepDeterminism, ThreadCountEnvDoesNotPerturbResultsOrCounterTotals) {
  const auto cells = table3_cells();
  std::vector<CellResult> r1, r8;
  SweepPoolStats p1, p8;
  SweepFaultStats f1, f8;
  {
    const EnvThreads env("1");
    r1 = sweep(cells, /*threads=*/0);  // 0 -> resolve from env
    p1 = last_sweep_pool_stats();
    f1 = last_sweep_fault_stats();
  }
  {
    const EnvThreads env("8");
    r8 = sweep(cells, /*threads=*/0);
    p8 = last_sweep_pool_stats();
    f8 = last_sweep_fault_stats();
  }
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_EQ(r1[i].status, r8[i].status) << i;
    EXPECT_EQ(r1[i].tpl_ms, r8[i].tpl_ms) << "cell " << i;
  }
  // Pool telemetry: the hit/miss split depends on how cells land on worker
  // threads (each thread pays its own cold misses), but the totals are a
  // property of the workload, not the schedule.
  EXPECT_EQ(p1.hits + p1.misses, p8.hits + p8.misses);
  EXPECT_EQ(p1.releases + p1.discards, p8.releases + p8.discards);
  // Fault counters on a fault-free sweep: exactly zero either way.
  EXPECT_EQ(f1.transport, f8.transport);
  EXPECT_EQ(f1.transport.retransmits, 0);
  EXPECT_EQ(f1.injected.frames, f8.injected.frames);
  EXPECT_EQ(f1.injected.frames, 0);
}

TEST(SweepDeterminism, FaultedSweepReplaysBitIdenticallyAcrossThreadCounts) {
  // The fault-plan axis: every cell carries the same lossy rates but its own
  // plan seed (cells with a shared seed replay the same fault-RNG prefix, so
  // short runs would be perfectly correlated). Cells are independent
  // Simulations with plan-seeded fault streams, so both the timings and the
  // aggregated wire/transport counters must replay exactly, at any thread
  // count.
  auto cells = table3_cells(fault::FaultPlan::uniform(0.10, 0.02, 0.05, 0.1,
                                                      sim::milliseconds(1)));
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].tpl.faults.seed = 0x7AB1E3 + i;
  const auto serial = sweep(cells, 1);
  const auto fault_serial = last_sweep_fault_stats();
  EXPECT_GT(fault_serial.transport.retransmits, 0);
  EXPECT_GT(fault_serial.injected.frames, 0);
  EXPECT_GT(fault_serial.injected.drops, 0);
  for (unsigned threads : {2u, 8u}) {
    const auto parallel = sweep(cells, threads);
    const auto fault_parallel = last_sweep_fault_stats();
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].status, serial[i].status) << i;
      EXPECT_EQ(parallel[i].tpl_ms, serial[i].tpl_ms) << "cell " << i;
    }
    EXPECT_EQ(fault_parallel.transport, fault_serial.transport) << threads << " threads";
    EXPECT_EQ(fault_parallel.injected.frames, fault_serial.injected.frames);
    EXPECT_EQ(fault_parallel.injected.drops, fault_serial.injected.drops);
    EXPECT_EQ(fault_parallel.injected.corruptions, fault_serial.injected.corruptions);
    EXPECT_EQ(fault_parallel.injected.duplicates, fault_serial.injected.duplicates);
    EXPECT_EQ(fault_parallel.injected.reorders, fault_serial.injected.reorders);
  }
}

TEST(SweepDeterminism, TraceStreamsAreBitIdenticalAcrossThreadCounts) {
  // Each cell re-run with a capture installed must produce the identical
  // record stream no matter which sweep worker executes it: the sink is
  // thread-local per cell and the simulation is single-threaded, so the
  // stream is a pure function of the cell.
  std::vector<CellSpec> cells;
  for (auto tool : {ToolKind::P4, ToolKind::Pvm, ToolKind::Express}) {
    for (std::int64_t bytes : {16, 16384}) {
      TplCell c;
      c.tool = tool;
      c.bytes = bytes;
      cells.push_back(CellSpec::of(c));
    }
  }
  auto run = [&](unsigned threads) {
    std::vector<TracedCell> out(cells.size());
    parallel_for_index(cells.size(), threads,
                       [&](std::size_t i) { out[i] = run_cell_traced(cells[i]); });
    return out;
  };
  const auto serial = run(1);
  EXPECT_FALSE(serial.front().records.empty());
  for (unsigned threads : {2u, 8u}) {
    const auto fanned = run(threads);
    ASSERT_EQ(fanned.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(fanned[i].result, serial[i].result) << "cell " << i;
      EXPECT_EQ(fanned[i].stats, serial[i].stats) << "cell " << i;
      ASSERT_EQ(fanned[i].records.size(), serial[i].records.size()) << "cell " << i;
      for (std::size_t r = 0; r < serial[i].records.size(); ++r) {
        ASSERT_EQ(fanned[i].records[r], serial[i].records[r])
            << "cell " << i << " record " << r << " at " << threads << " threads";
      }
    }
  }
}

TEST(TracedCell, SchedCellTracesWithTheSameResultBytes) {
  SchedCell cell;
  cell.njobs = 6;
  const CellSpec spec = CellSpec::of(cell);
  const TracedCell traced = run_cell_traced(spec);
  ASSERT_EQ(traced.result.status, CellStatus::Ok) << traced.result.error;
  EXPECT_EQ(encode_result(traced.result), encode_result(run_cell(spec)));
  EXPECT_FALSE(traced.records.empty());
}

TEST(TracedCell, ErrorCellReturnsErrorWithAnEmptyStream) {
  TplCell cell;
  cell.primitive = Primitive::Broadcast;
  cell.procs = 4096;  // more procs than the platform has nodes
  const TracedCell traced = run_cell_traced(CellSpec::of(cell));
  EXPECT_EQ(traced.result.status, CellStatus::Error);
  EXPECT_FALSE(traced.result.error.empty());
  EXPECT_TRUE(traced.records.empty());
  EXPECT_EQ(traced.stats.emitted, 0u);
}

TEST(SweepTelemetry, ConcurrentSweepsKeepTheirOwnStats) {
  // Regression: the last_sweep_*_stats() accessors used to read global
  // aggregates, so a clean sweep racing a faulted sweep on another thread
  // (exactly what the evaluation daemon does) could observe the other
  // request's injected-fault counters. Each accessor now reports the last
  // sweep *submitted from the calling thread*; a clean sweep must read
  // zero injected frames no matter what runs next door.
  std::vector<CellSpec> faulty_cells, clean_cells;
  for (std::int64_t bytes : {256, 1024, 4096}) {
    TplCell c;
    c.bytes = bytes;
    c.faults = fault::FaultPlan::uniform(0.05, 0.0, 0.0, 0.0, sim::microseconds(100), 0xF457);
    faulty_cells.push_back(CellSpec::of(c));
    c.faults = {};
    clean_cells.push_back(CellSpec::of(c));
  }

  for (int round = 0; round < 3; ++round) {
    std::atomic<int> ready{0};
    SweepFaultStats clean_seen{}, faulty_seen{};
    std::thread faulty([&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {}
      (void)sweep(faulty_cells, 2);
      faulty_seen = last_sweep_fault_stats();
    });
    std::thread clean([&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {}
      (void)sweep(clean_cells, 2);
      clean_seen = last_sweep_fault_stats();
    });
    faulty.join();
    clean.join();
    EXPECT_GT(faulty_seen.injected.frames, 0) << "round " << round;
    EXPECT_EQ(clean_seen.injected.frames, 0) << "round " << round;
    EXPECT_EQ(clean_seen.injected.drops, 0) << "round " << round;
    EXPECT_EQ(clean_seen.transport.retransmits, 0) << "round " << round;
  }
}

}  // namespace
}  // namespace pdc::eval
