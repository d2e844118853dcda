// The `fabric` workload: the scale study run one cell at a time on the
// calling thread, the way pdcsched and `pdceval --cell` users run it --
// broadcast, global sum and ring for all three tools on the flat,
// fat-tree and dragonfly fabrics at P in {256, 1024, 4096}, plus twelve
// seeded scheduler job streams, in a seeded order.
#include <algorithm>
#include <numeric>
#include <optional>

#include "inputs.hpp"
#include "kernels/arena.hpp"
#include "kernels/hostwork.hpp"
#include "mp/api.hpp"
#include "mp/buffer_pool.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pdc::eval::CellResult;
using pdc::eval::CellSpec;
using pdc::eval::CellType;
using pdc::eval::Primitive;

/// The RunOutcome of `cell`'s primitive program, run through mp::run_spmd
/// exactly as eval::tpl_cell_ms runs it (same tags, payloads and rounds).
pdc::mp::RunOutcome replica(const pdc::eval::TplCell& cell) {
  constexpr int kTag = 42;
  const std::int64_t bytes = cell.bytes;
  const std::int64_t ints = cell.global_sum_ints;
  const int procs = cell.procs;
  pdc::mp::RankProgram program;
  switch (cell.primitive) {
    case Primitive::Broadcast:
      program = [bytes](pdc::mp::Communicator& c) -> pdc::sim::Task<void> {
        pdc::mp::Bytes data;
        if (c.rank() == 0) data = pdc::mp::Bytes(static_cast<std::size_t>(bytes), std::byte{0x5A});
        co_await c.broadcast(0, data, kTag);
      };
      break;
    case Primitive::GlobalSum:
      program = [ints](pdc::mp::Communicator& c) -> pdc::sim::Task<void> {
        std::vector<std::int32_t> v(static_cast<std::size_t>(ints), c.rank() + 1);
        co_await c.global_sum(v);
      };
      break;
    case Primitive::Ring:
      program = [bytes, procs](pdc::mp::Communicator& c) -> pdc::sim::Task<void> {
        const int next = (c.rank() + 1) % procs;
        const int prev = (c.rank() + procs - 1) % procs;
        for (int r = 0; r < 4; ++r) {
          co_await c.send(next, kTag + r,
                          pdc::mp::make_payload(
                              pdc::mp::Bytes(static_cast<std::size_t>(bytes), std::byte{0x5A})));
          (void)co_await c.recv(prev, kTag + r);
        }
      };
      break;
    case Primitive::SendRecv:
      throw std::logic_error("fabric replica: send/receive is not a fabric op");
  }
  return pdc::mp::run_spmd(cell.platform, procs, cell.tool, program);
}

struct PassOutput {
  std::vector<std::uint64_t> digests;
  std::vector<double> cell_us;
  std::uint64_t errors{0};
};

/// Run `ops` in order on this thread, one span per cell.
PassOutput run_ops(const std::vector<CellSpec>& ops) {
  SpanScope span("fabric.ops");
  const auto boxes0 = pdc::mp::mailbox_accumulator();
  const auto pool0 = pdc::mp::BufferPool::local().stats();
  const auto arena0 = pdc::kernels::Arena::local().stats();
  PassOutput out;
  out.digests.reserve(ops.size());
  out.cell_us.reserve(ops.size());
  for (const CellSpec& op : ops) {
    SpanScope cell(op.type == CellType::Sched ? "eval.sched_cell" : "eval.tpl_cell");
    const auto work0 = pdc::kernels::host_work();
    const auto t0 = Clock::now();
    const CellResult r = pdc::eval::run_cell(op);
    out.cell_us.push_back(us_since(t0));
    if (cell.active()) {
      const auto work1 = pdc::kernels::host_work();
      cell.count(0, static_cast<std::int64_t>(work1.app_ns - work0.app_ns));
      cell.count(1, static_cast<std::int64_t>(work1.calls - work0.calls));
      cell.count(2, static_cast<std::int64_t>(r.sched.schedule.events));
      cell.count(3, static_cast<std::int64_t>(r.sched.schedule.jobs.size()));
    }
    if (r.status == pdc::eval::CellStatus::Error) ++out.errors;
    out.digests.push_back(result_digest(r));
  }
  if (span.active()) {
    const auto boxes1 = pdc::mp::mailbox_accumulator();
    const auto pool1 = pdc::mp::BufferPool::local().stats();
    const auto arena1 = pdc::kernels::Arena::local().stats();
    span.count(0, static_cast<std::int64_t>(boxes1.pushes - boxes0.pushes));
    span.count(1, static_cast<std::int64_t>(boxes1.matches - boxes0.matches));
    span.count(2, static_cast<std::int64_t>(boxes1.items_scanned - boxes0.items_scanned));
    span.count(3, static_cast<std::int64_t>(pool1.hits - pool0.hits));
    span.count(4, static_cast<std::int64_t>(pool1.misses - pool0.misses));
    span.count(5, static_cast<std::int64_t>(arena1.grows - arena0.grows));
  }
  return out;
}

/// Replay every primitive cell of a pass once through mp::run_spmd, under
/// a "sim.replica" span carrying its event count. Returns whether every
/// replica took exactly its cell's simulated time, i.e. whether the
/// replicas still run the library's programs.
bool replicate_primitives(const std::vector<CellSpec>& ops, const std::vector<CellResult>& ref) {
  bool exact = true;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].type != CellType::Tpl || ref[i].status != pdc::eval::CellStatus::Ok) continue;
    SpanScope span("sim.replica");
    const pdc::mp::RunOutcome o = replica(ops[i].tpl);
    span.count(0, static_cast<std::int64_t>(o.events));
    exact = exact && o.elapsed.millis() == ref[i].tpl_ms;
  }
  return exact;
}

void fabric_layers(const std::vector<Span>& all, const std::vector<Span>& passes,
                   std::size_t traced_passes, bool replicas_exact, Report& report) {
  const double n = static_cast<double>(std::max<std::size_t>(traced_passes, 1));
  const auto tpl = spans_named(passes, "eval.tpl_cell");
  const auto sched = spans_named(passes, "eval.sched_cell");
  double busy = 0.0, kernel_ns = 0.0, kernel_calls = 0.0, sched_events = 0.0;
  for (const auto* list : {&tpl, &sched}) {
    for (const Span* s : *list) {
      busy += s->seconds();
      kernel_ns += static_cast<double>(s->c[0]);
      kernel_calls += static_cast<double>(s->c[1]);
      sched_events += static_cast<double>(s->c[2]);
    }
  }
  std::int64_t pushes = 0, matches = 0, scanned = 0, hits = 0, misses = 0, grows = 0;
  double ops_wall = 0.0;
  for (const Span* s : spans_named(passes, "fabric.ops")) {
    ops_wall += s->seconds();
    pushes += s->c[0];
    matches += s->c[1];
    scanned += s->c[2];
    hits += s->c[3];
    misses += s->c[4];
    grows += s->c[5];
  }

  // sim.events: each primitive program's run_spmd replica (see
  // replicate_primitives) plus the scheduler streams' own event counts.
  const double events =
      static_cast<double>(total_count(all, "sim.replica", 0)) + sched_events / n;

  report.layer("eval.cells", static_cast<double>(tpl.size() + sched.size()) / n);
  report.layer("eval.busy_s", busy / n);
  report.layer("eval.idle_share", ops_wall > 0 ? 1.0 - busy / ops_wall : 0.0);
  report.absent("eval.app_cell_p50_us", "no application cells in this workload (paper has them)");
  report.absent("eval.app_cell_p99_us", "no application cells in this workload (paper has them)");
  report.layer("eval.tpl_cell_p50_us", median(durations_us(passes, "eval.tpl_cell")));
  report.layer("eval.sched_cell_p50_us", median(durations_us(passes, "eval.sched_cell")));
  report.layer("kernels.busy_s", kernel_ns * 1e-9 / n);
  report.layer("kernels.calls", kernel_calls / n);
  report.layer("kernels.share", busy > 0 ? kernel_ns * 1e-9 / busy : 0.0);
  report.layer("kernels.arena_grows", static_cast<double>(grows) / n);
  report.layer("mp.mailbox_pushes", static_cast<double>(pushes) / n);
  report.layer("mp.scans_per_match",
               matches > 0 ? static_cast<double>(scanned) / static_cast<double>(matches) : 0.0);
  report.layer("mp.pool_hit_rate", hits + misses > 0 ? static_cast<double>(hits) /
                                                           static_cast<double>(hits + misses)
                                                     : 0.0);
  if (replicas_exact) {
    report.layer("sim.events", events);
    report.layer("sim.ns_per_event", events > 0 ? busy / n * 1e9 / events : 0.0);
  } else {
    const char* why =
        "a run_spmd replica's simulated time differs from its cell's: the replicas no longer "
        "run the library's primitive programs";
    report.absent("sim.events", why);
    report.absent("sim.ns_per_event", why);
  }
}

}  // namespace

void run_fabric(const Options& opts, Report& report) {
  std::vector<CellSpec> ops;
  std::vector<CellResult> ref_results;
  ResultChecker checker;
  Latencies untraced(opts.trace), traced(opts.trace);
  // One thread runs every cell: each set-up and pass on the next CPU.
  CpuPin cpus;

  const auto setup = [&](int i) {
    ops = fabric_ops(opts.seed);
    // Reference: width 1, in canonical (encoded-spec) order rather than the
    // seeded op order, so the check also covers order independence.
    std::vector<std::size_t> order(ops.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return pdc::eval::encode_spec(ops[a]) < pdc::eval::encode_spec(ops[b]);
    });
    std::vector<CellSpec> canonical;
    for (const std::size_t k : order) canonical.push_back(ops[k]);
    std::vector<std::uint64_t> digests(ops.size());
    std::vector<CellResult> results(ops.size());
    std::uint64_t errors = 0;
    {
      SpanScope span("fabric.reference");
      for (std::size_t k = 0; k < order.size(); ++k) {
        results[order[k]] = pdc::eval::run_cell(canonical[k]);
        errors += results[order[k]].status == pdc::eval::CellStatus::Error;
        digests[order[k]] = result_digest(results[order[k]]);
      }
    }
    report.ops(ops.size(), errors);
    ResultChecker fresh(std::move(digests));
    if (i > 0) report.ops(1, fresh.reference() == checker.reference() ? 0 : 1);
    if (i == 0) {
      checker = std::move(fresh);
      ref_results = std::move(results);
    }
    SpanScope warm_span("fabric.warm");
    const PassOutput warm = run_ops(ops);
    report.ops(warm.digests.size(), warm.errors + checker.mismatches(warm.digests));
  };
  const auto one_pass = [&] {
    const auto t0 = Clock::now();
    const PassOutput out = run_ops(ops);
    const double wall = seconds_since(t0);
    report.ops(out.digests.size(), out.errors + checker.mismatches(out.digests));
    Latencies& into = Tracer::get().on() ? traced : untraced;
    into.add_block(into.cell, out.cell_us, cpus.slot());
    return wall;
  };
  // hit/miss: the store's side of serving the P in {256, 1024} primitive
  // cells, one batch after every pass (the reference exists once the
  // set-ups ran).
  std::optional<StoreBatches> store;
  const auto after_pass = [&] {
    if (!store) {
      std::vector<CellSpec> cells;
      std::vector<std::uint64_t> cells_ref;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].type == CellType::Tpl && ops[i].tpl.procs <= 1024) {
          cells.push_back(ops[i]);
          cells_ref.push_back(checker.reference()[i]);
        }
      }
      store.emplace(std::move(cells), cells_ref, report);
    }
    store->batch(Tracer::get().on() ? traced : untraced, report, cpus.slot());
  };
  const LoopTimes t = run_loop(opts, setup, one_pass, after_pass, 0, &cpus);
  report_end_to_end(report, t, untraced);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.info("ops_per_pass", static_cast<double>(ops.size()));
  report.note("reference_digest", std::to_string(checker.reference_digest()));

  if (!opts.trace) return;
  Tracer& tracer = Tracer::get();
  tracer.set_on(true);
  const bool replicas_exact = replicate_primitives(ops, ref_results);
  tracer.set_on(false);
  const std::vector<Span> all = tracer.spans();
  fabric_layers(all, spans_under(all, "pass"), spans_named(all, "pass").size(), replicas_exact,
                report);
  report_trace_summary(report, t, untraced, traced);
}

}  // namespace perfbench
