// The `paper` workload: every artefact the reproduction publishes,
// regenerated as one pass -- the Table 3 + Figures 2-4 TPL grid and the
// Figures 5-8 APL grid as eval::CellSpec through eval::run_cell fanned out
// by eval::parallel_for_index at the library's default width, Table 4
// rankings, the Table 5 ADL matrix, eval::evaluate_tools on the four
// figure platforms and the model cross-validation suite.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>

#include "eval/methodology.hpp"
#include "eval/sweep.hpp"
#include "inputs.hpp"
#include "kernels/hostwork.hpp"
#include "model/crossval.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pdc::eval::CellSpec;
using pdc::eval::Primitive;
using pdc::host::PlatformId;
using pdc::mp::ToolKind;

struct RankRow {
  PlatformId platform;
  Primitive primitive;
  std::int64_t bytes;
};

/// Table 4's rows (4 processes; 16 KB, global sum at 160000 bytes).
constexpr RankRow kTable4[] = {
    {PlatformId::SunEthernet, Primitive::SendRecv, 16384},
    {PlatformId::SunEthernet, Primitive::Broadcast, 16384},
    {PlatformId::SunEthernet, Primitive::Ring, 16384},
    {PlatformId::SunEthernet, Primitive::GlobalSum, 160000},
    {PlatformId::SunAtmLan, Primitive::SendRecv, 16384},
    {PlatformId::SunAtmWan, Primitive::Broadcast, 16384},
    {PlatformId::SunAtmWan, Primitive::Ring, 16384},
};

class Bytes {
 public:
  template <typename T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    bytes_.insert(bytes_.end(), p, p + sizeof(T));
  }
  void put_str(const std::string& s) {
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    bytes_.insert(bytes_.end(), p, p + s.size());
  }
  [[nodiscard]] std::uint64_t digest() const { return fnv1a(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

/// Table 5: the ADL ratings of every tool and the weighted scores of the
/// three audience profiles the paper's usability discussion uses.
std::uint64_t table5_digest() {
  using pdc::eval::AdlWeights;
  using pdc::eval::Criterion;
  Bytes b;
  for (const Criterion c : pdc::eval::all_criteria()) {
    for (const ToolKind t : pdc::mp::all_tools()) b.put(pdc::eval::adl_rating(t, c));
  }
  AdlWeights novice = AdlWeights::uniform();
  AdlWeights integrator = AdlWeights::uniform();
  for (auto& [c, w] : novice.weights) {
    if (c == Criterion::EaseOfProgramming || c == Criterion::DebuggingSupport) w = 3.0;
  }
  for (auto& [c, w] : integrator.weights) {
    if (c == Criterion::Integration || c == Criterion::RunTimeInterface ||
        c == Criterion::ErrorHandling) {
      w = 3.0;
    }
  }
  for (const AdlWeights& w : {AdlWeights::uniform(), novice, integrator}) {
    for (const ToolKind t : pdc::mp::all_tools()) b.put(pdc::eval::adl_score(t, w));
  }
  return b.digest();
}

class PaperPass {
 public:
  PaperPass() : tpl_(paper_tpl_grid()), apl_(paper_apl_grid()) {}

  [[nodiscard]] std::size_t items() const {
    return tpl_.size() + apl_.size() + std::size(kTable4) + 1 + figure_platforms().size() + 1;
  }

  struct Output {
    std::vector<std::uint64_t> digests;
    std::uint64_t errors{0};
    std::vector<double> cell_us;
  };

  /// One pass; `width` 0 is the library default sweep width.
  [[nodiscard]] Output run(unsigned width) const {
    Output out;
    out.digests.resize(items());
    out.cell_us.resize(tpl_.size() + apl_.size());
    std::size_t next = 0;
    grid("paper.tpl_grid", "eval.tpl_cell", tpl_, width, out, next);
    next += tpl_.size();
    grid("paper.apl_grid", "eval.app_cell", apl_, width, out, next);
    next += apl_.size();
    {
      SpanScope span("paper.table4");
      for (const RankRow& row : kTable4) {
        Bytes b;
        for (const ToolKind t :
             pdc::eval::rank_by_primitive(row.platform, row.primitive, 4, row.bytes)) {
          b.put(t);
        }
        out.digests[next++] = b.digest();
      }
    }
    {
      SpanScope span("paper.table5");
      out.digests[next++] = table5_digest();
    }
    for (const PlatformId p : figure_platforms()) {
      SpanScope span("eval.methodology");
      pdc::eval::EvaluationConfig cfg;
      cfg.platform = p;
      Bytes b;
      for (const auto& e : pdc::eval::evaluate_tools(cfg)) {
        b.put(e.tool);
        b.put(e.tpl_score);
        b.put(e.apl_score);
        b.put(e.adl_score);
        b.put(e.overall);
      }
      out.digests[next++] = b.digest();
    }
    {
      SpanScope span("model.suite");
      const pdc::model::MeasureTpl direct = pdc::model::direct_measure(width);
      const pdc::model::MeasureTpl measure = [&direct](const auto& cells) {
        SpanScope m("model.measure");
        return direct(cells);
      };
      const pdc::model::SuiteReport suite = pdc::model::run_default_suite(measure);
      Bytes b;
      b.put_str(pdc::model::to_json(suite));
      for (const auto& c : suite.cells) {
        b.put(c.median_rel_err);
        b.put(c.max_rel_err);
        b.put(c.model.c0);
        b.put(c.model.c1);
        b.put(c.model.c2);
      }
      out.digests[next++] = b.digest();
    }
    return out;
  }

  [[nodiscard]] const std::vector<CellSpec>& tpl() const noexcept { return tpl_; }

 private:
  void grid(const char* grid_name, const char* cell_name, const std::vector<CellSpec>& cells,
            unsigned width, Output& out, std::size_t offset) const {
    SpanScope span(grid_name);
    const std::uint64_t parent = span.id();
    std::atomic<std::uint64_t> errors{0};
    pdc::eval::parallel_for_index(cells.size(), width, [&](std::size_t i) {
      SpanScope cell(cell_name, parent);
      const auto work0 = pdc::kernels::host_work();
      const auto t0 = Clock::now();
      const pdc::eval::CellResult r = pdc::eval::run_cell(cells[i]);
      out.cell_us[offset + i] = us_since(t0);
      if (cell.active()) {
        const auto work1 = pdc::kernels::host_work();
        cell.count(0, static_cast<std::int64_t>(work1.app_ns - work0.app_ns));
        cell.count(1, static_cast<std::int64_t>(work1.calls - work0.calls));
      }
      if (r.status == pdc::eval::CellStatus::Error) errors.fetch_add(1);
      out.digests[offset + i] = result_digest(r);
    });
    out.errors += errors.load();
    if (span.active()) {
      const auto pool = pdc::eval::last_sweep_pool_stats();
      const auto boxes = pdc::eval::last_sweep_mailbox_stats();
      const auto host = pdc::eval::last_sweep_host_stats();
      span.count(0, static_cast<std::int64_t>(boxes.pushes));
      span.count(1, static_cast<std::int64_t>(boxes.matches));
      span.count(2, static_cast<std::int64_t>(boxes.items_scanned));
      span.count(3, static_cast<std::int64_t>(pool.hits));
      span.count(4, static_cast<std::int64_t>(pool.misses));
      span.count(5, static_cast<std::int64_t>(host.arena_grows));
    }
  }

  std::vector<CellSpec> tpl_;
  std::vector<CellSpec> apl_;
};

/// The width-1 serial reference pass. evaluate_tools takes its width from
/// the library default, so PDC_SWEEP_THREADS pins it for the duration
/// (only this thread runs while the variable is set).
PaperPass::Output reference_pass(const PaperPass& pass) {
  ::setenv("PDC_SWEEP_THREADS", "1", 1);
  PaperPass::Output out = pass.run(1);
  ::unsetenv("PDC_SWEEP_THREADS");
  return out;
}

void paper_layers(const std::vector<Span>& spans, std::size_t traced_passes, unsigned width,
                  Report& report) {
  const double n = static_cast<double>(std::max<std::size_t>(traced_passes, 1));
  const auto tpl = spans_named(spans, "eval.tpl_cell");
  const auto app = spans_named(spans, "eval.app_cell");
  double busy = 0.0, kernel_ns = 0.0, kernel_calls = 0.0;
  for (const auto* list : {&tpl, &app}) {
    for (const Span* s : *list) {
      busy += s->seconds();
      kernel_ns += static_cast<double>(s->c[0]);
      kernel_calls += static_cast<double>(s->c[1]);
    }
  }
  double grid_wall = 0.0;
  std::int64_t pushes = 0, matches = 0, scanned = 0, hits = 0, misses = 0, grows = 0;
  for (const char* g : {"paper.tpl_grid", "paper.apl_grid"}) {
    for (const Span* s : spans_named(spans, g)) {
      grid_wall += s->seconds();
      pushes += s->c[0];
      matches += s->c[1];
      scanned += s->c[2];
      hits += s->c[3];
      misses += s->c[4];
      grows += s->c[5];
    }
  }
  report.layer("eval.cells", static_cast<double>(tpl.size() + app.size()) / n);
  report.layer("eval.busy_s", busy / n);
  report.layer("eval.idle_share", grid_wall > 0 ? 1.0 - busy / (width * grid_wall) : 0.0);
  report.layer("eval.app_cell_p50_us", median(durations_us(spans, "eval.app_cell")));
  report.layer("eval.app_cell_p99_us", percentile(durations_us(spans, "eval.app_cell"), 0.99));
  report.layer("eval.tpl_cell_p50_us", median(durations_us(spans, "eval.tpl_cell")));
  report.absent("eval.sched_cell_p50_us", "no scheduler cells in this workload (fabric has them)");
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
  const double measure = total_seconds(spans, "model.measure");
  report.layer("model.measure_s", measure / n);
  report.layer("model.fit_s", (total_seconds(spans, "model.suite") - measure) / n);
  report.absent("sim.events", "counted on fabric (run_spmd replicas and scheduler outcomes)");
  report.absent("sim.ns_per_event", "counted on fabric");
}

}  // namespace

void run_paper(const Options& opts, Report& report) {
  const PaperPass pass;
  ResultChecker checker;
  Latencies untraced(opts.trace), traced(opts.trace);

  const auto setup = [&](int i) {
    PaperPass::Output ref;
    {
      SpanScope span("paper.reference");
      ref = reference_pass(pass);
    }
    ResultChecker fresh(ref.digests);
    // Every set-up recomputes the reference; they must agree bit for bit.
    if (i > 0) report.ops(1, fresh.reference() == checker.reference() ? 0 : 1);
    if (i == 0) checker = std::move(fresh);
    report.ops(ref.digests.size(), ref.errors);
    SpanScope warm_span("paper.warm");
    const PaperPass::Output warm = pass.run(0);
    report.ops(warm.digests.size(), warm.errors + checker.mismatches(warm.digests));
  };
  const auto one_pass = [&] {
    const auto t0 = Clock::now();
    const PaperPass::Output out = pass.run(0);
    const double wall = seconds_since(t0);
    report.ops(out.digests.size(), out.errors + checker.mismatches(out.digests));
    Latencies& into = Tracer::get().on() ? traced : untraced;
    into.add_block(into.cell, out.cell_us);
    return wall;
  };
  // hit/miss: the store's side of serving this workload's TPL cells, one
  // batch after every pass (the reference exists once the set-ups ran).
  // The passes use every CPU; the batches run on one thread, so batch i
  // runs pinned to CPU i (a traced/untraced pair to one CPU).
  std::optional<StoreBatches> store;
  CpuPin cpus;
  std::size_t batches = 0;
  const auto after_pass = [&] {
    if (!store) store.emplace(pass.tpl(), checker.reference(), report);
    cpus.pin(batches++ / (opts.trace ? 2 : 1));
    store->batch(Tracer::get().on() ? traced : untraced, report, cpus.slot());
    cpus.release();
  };
  const LoopTimes t = run_loop(opts, setup, one_pass, after_pass);
  report_end_to_end(report, t, untraced);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.info("items_per_pass", static_cast<double>(pass.items()));
  report.note("reference_digest", std::to_string(checker.reference_digest()));

  if (!opts.trace) return;
  const std::vector<Span> all = Tracer::get().spans();
  paper_layers(spans_under(all, "pass"), spans_named(all, "pass").size(),
               pdc::eval::sweep_threads(), report);
  report_trace_summary(report, t, untraced, traced);
}

}  // namespace perfbench
