// Evaluation-service throughput (ROADMAP item 4). Reported per benchmark:
//   lookups_per_s  -- cells served per wall second (the headline: cached
//                     batched lookups must exceed 1e5/s)
//   cells_per_s    -- cold-path cells simulated per second; compare
//                     BM_ColdSweepDaemon against BM_ColdSweepDirect to see
//                     the daemon's overhead on a cache-miss sweep (the
//                     target is within 5%)
//
// Three layers: the raw store (hash + probe + byte-compare), a live
// daemon serving batched cached sweeps over its Unix socket (the real hot
// path, framing and CRC included), and single-cell round-trips (RTT
// bound, the reason clients batch).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "eval/cell.hpp"
#include "evald/client.hpp"
#include "evald/server.hpp"
#include "evald/store.hpp"
#include "fault/plan.hpp"

namespace {

using namespace pdc;

std::string scratch_socket() {
  static int counter = 0;
  return "/tmp/pdc_bench_evald_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// A cheap synthetic result: lookup cost does not depend on how the
/// bytes were produced, so the store benchmark skips the simulations.
std::vector<std::byte> synthetic_result() {
  eval::CellResult r;
  r.type = eval::CellType::Tpl;
  r.tpl_ms = 1.0;
  return eval::encode_result(r);
}

/// Cold-sweep workload: faulted 64 KiB send/receive on every tool x
/// platform (18 cells, several hundred microseconds of simulation each,
/// the regime a daemon actually serves). Cheap cells would only measure
/// framing overhead; these measure what the service adds to real work.
std::vector<eval::CellSpec> faulted_cells() {
  std::vector<eval::CellSpec> cells;
  for (const host::PlatformId platform : host::all_platforms()) {
    for (const mp::ToolKind tool : {mp::ToolKind::P4, mp::ToolKind::Pvm, mp::ToolKind::Express}) {
      eval::TplCell c;
      c.tool = tool;
      c.platform = platform;
      c.primitive = eval::Primitive::SendRecv;
      c.bytes = 65536;
      c.procs = 2;
      c.faults =
          fault::FaultPlan::uniform(0.03, 0.01, 0.01, 0.0, sim::microseconds(200), 0xBE7C);
      cells.push_back(eval::CellSpec::of(c));
    }
  }
  return cells;
}

void BM_StoreHotLookup(benchmark::State& state) {
  evald::Store store;  // in-memory
  const auto result = synthetic_result();
  std::vector<std::vector<std::byte>> specs;
  std::vector<std::uint64_t> keys;
  for (const eval::CellSpec& spec : eval::table3_grid()) {
    specs.push_back(eval::encode_spec(spec));
    keys.push_back(eval::cell_key(specs.back()));
    store.insert(keys.back(), specs.back(), result, false);
  }

  std::uint64_t lookups = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto hit = store.lookup(keys[i], specs[i]);
      benchmark::DoNotOptimize(hit);
    }
    lookups += specs.size();
  }
  state.counters["lookups_per_s"] =
      benchmark::Counter(static_cast<double>(lookups), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StoreHotLookup);

void BM_CachedSweepLookups(benchmark::State& state) {
  evald::ServerConfig config;
  config.socket_path = scratch_socket();
  evald::Server server(config);
  server.start();
  evald::Client client(config.socket_path);
  const auto grid = eval::table3_grid();  // 144 cells per round-trip
  (void)client.warm(grid);                // fill the cache once, untimed

  std::uint64_t lookups = 0;
  for (auto _ : state) {
    auto origins = client.warm(grid);
    benchmark::DoNotOptimize(origins);
    lookups += origins.size();
  }
  state.counters["lookups_per_s"] =
      benchmark::Counter(static_cast<double>(lookups), benchmark::Counter::kIsRate);
  server.stop();
}
BENCHMARK(BM_CachedSweepLookups)->UseRealTime();

void BM_CachedSweepWithResultBytes(benchmark::State& state) {
  // Same as above but shipping every encoded CellResult back, the way an
  // analysis client consumes a sweep.
  evald::ServerConfig config;
  config.socket_path = scratch_socket();
  evald::Server server(config);
  server.start();
  evald::Client client(config.socket_path);
  const auto grid = eval::table3_grid();
  (void)client.warm(grid);

  std::uint64_t lookups = 0;
  for (auto _ : state) {
    auto outcomes = client.sweep(grid);
    benchmark::DoNotOptimize(outcomes);
    lookups += outcomes.size();
  }
  state.counters["lookups_per_s"] =
      benchmark::Counter(static_cast<double>(lookups), benchmark::Counter::kIsRate);
  server.stop();
}
BENCHMARK(BM_CachedSweepWithResultBytes)->UseRealTime();

void BM_SingleCellRoundTrip(benchmark::State& state) {
  // One cached cell per frame: the RTT floor that batching exists to beat.
  evald::ServerConfig config;
  config.socket_path = scratch_socket();
  evald::Server server(config);
  server.start();
  evald::Client client(config.socket_path);
  const eval::CellSpec spec = eval::table3_grid().front();
  (void)client.lookup(spec);

  std::uint64_t lookups = 0;
  for (auto _ : state) {
    auto outcome = client.lookup(spec);
    benchmark::DoNotOptimize(outcome);
    ++lookups;
  }
  state.counters["lookups_per_s"] =
      benchmark::Counter(static_cast<double>(lookups), benchmark::Counter::kIsRate);
  server.stop();
}
BENCHMARK(BM_SingleCellRoundTrip)->UseRealTime();

void BM_ColdSweepDirect(benchmark::State& state) {
  // Reference: the same fresh cells run straight through eval::sweep.
  const auto cells_in = faulted_cells();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    auto results = eval::sweep(cells_in, 0);
    benchmark::DoNotOptimize(results);
    cells += cells_in.size();
  }
  state.counters["cells_per_s"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ColdSweepDirect)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ColdSweepDaemon(benchmark::State& state) {
  // The same cells through the daemon with the cache emptied first, so
  // every cell is a miss: measures what the service layer (framing, CRC,
  // store inserts) adds on top of the simulations. Target: within 5% of
  // BM_ColdSweepDirect.
  evald::ServerConfig config;
  config.socket_path = scratch_socket();
  evald::Server server(config);
  server.start();
  evald::Client client(config.socket_path);
  const std::vector<eval::CellSpec> grid = faulted_cells();

  std::uint64_t cells = 0;
  for (auto _ : state) {
    state.PauseTiming();
    (void)client.invalidate_all();
    state.ResumeTiming();
    auto outcomes = client.sweep(grid);
    benchmark::DoNotOptimize(outcomes);
    cells += outcomes.size();
  }
  state.counters["cells_per_s"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
  server.stop();
}
BENCHMARK(BM_ColdSweepDaemon)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
