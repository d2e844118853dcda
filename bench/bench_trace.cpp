// Wall-clock cost of the trace subsystem (google-benchmark): the per-record
// emit path, category-mask rejection, capture overhead on a real evaluation
// cell, and the dormant cost every build pays: a probe with no sink
// installed (BM_TraceEmitNoSink) and a whole cell run that way
// (BM_TplCellUntraced).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "eval/trace_cell.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/sink.hpp"

namespace {

using namespace pdc;

trace::Record sample_record(std::int64_t t) {
  trace::Record r;
  r.kind = trace::Kind::SendEnd;
  r.t_ns = t;
  r.bytes = 1024;
  r.id = static_cast<std::uint64_t>(t);
  r.rank = 0;
  r.peer = 1;
  r.tag = 42;
  r.aux1 = t - 100;
  return r;
}

// One accepted record: mask test, 56-byte store, two index bumps.
void BM_TraceEmit(benchmark::State& state) {
  trace::Sink sink(1 << 16, trace::kAllMask);
  std::int64_t t = 0;
  for (auto _ : state) {
    sink.emit(sample_record(++t));
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// A record the category mask rejects: the cheapest path through emit().
void BM_TraceEmitMasked(benchmark::State& state) {
  trace::Sink sink(1 << 16, trace::kCatNet);  // SendEnd is Mp: filtered
  std::int64_t t = 0;
  for (auto _ : state) {
    sink.emit(sample_record(++t));
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// The free-function probe body with no sink installed: one thread-local
// load and a null test. This is the cost every probe pays while no capture
// is installed.
void BM_TraceEmitNoSink(benchmark::State& state) {
  std::int64_t t = 0;
  for (auto _ : state) {
    trace::emit(sample_record(++t));
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

eval::CellSpec bench_cell() {
  eval::TplCell cell;
  cell.primitive = eval::Primitive::SendRecv;
  cell.bytes = 4096;
  return eval::CellSpec::of(cell);
}

// Baseline: the Table-3 send/recv cell exactly as the sweep runs it, its
// probes present but dormant (no sink).
void BM_TplCellUntraced(benchmark::State& state) {
  const auto cell = bench_cell();
  for (auto _ : state) {
    auto result = eval::run_cell(cell);
    benchmark::DoNotOptimize(result);
  }
}

// The same cell with a live capture: full record stream into the ring, so
// the delta vs untraced is the per-run emit cost.
void BM_TplCellTraced(benchmark::State& state) {
  const auto cell = bench_cell();
  std::uint64_t emitted = 0;
  for (auto _ : state) {
    auto traced = eval::run_cell_traced(cell);
    emitted += traced.stats.emitted;
    benchmark::DoNotOptimize(traced);
  }
  state.counters["records_per_run"] = benchmark::Counter(
      static_cast<double>(emitted) / static_cast<double>(state.iterations()));
}

// Post-run analysis + export cost over a real captured stream -- bounds what
// `pdctrace --report --json` adds.
void BM_TraceAnalyzeAndExport(benchmark::State& state) {
  const auto traced = eval::run_cell_traced(bench_cell());
  for (auto _ : state) {
    auto report = trace::text_report(traced.records);
    auto json = trace::export_perfetto_json(traced.records);
    benchmark::DoNotOptimize(report);
    benchmark::DoNotOptimize(json);
  }
  state.counters["records"] =
      benchmark::Counter(static_cast<double>(traced.records.size()));
}

BENCHMARK(BM_TraceEmit);
BENCHMARK(BM_TraceEmitMasked);
BENCHMARK(BM_TraceEmitNoSink);
BENCHMARK(BM_TplCellUntraced);
BENCHMARK(BM_TplCellTraced);
BENCHMARK(BM_TraceAnalyzeAndExport);

}  // namespace

BENCHMARK_MAIN();
