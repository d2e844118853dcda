#include <sys/resource.h>

#include <filesystem>
#include <string>

#include "evald/store.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t result_digest(const pdc::eval::CellResult& result) {
  return fnv1a(pdc::eval::encode_result(result));
}

CpuPin::CpuPin() {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) allowed_.push_back(c);
  }
}

CpuPin::~CpuPin() { release(); }

namespace {

/// Sets the affinity of every thread of this process; the calling thread's
/// result is returned (threads that end meanwhile are skipped).
bool set_process_affinity(const cpu_set_t& set) {
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
    (void)sched_setaffinity(tid, sizeof set, &set);
  }
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

int CpuPin::pin(std::size_t k) {
  if (allowed_.empty()) return -1;
  slot_ = static_cast<int>(k % allowed_.size());
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed_[slot_], &one);
  return set_process_affinity(one) ? allowed_[slot_] : -1;
}

void CpuPin::release() {
  if (!allowed_.empty()) (void)set_process_affinity(saved_);
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

LoopTimes run_loop(const Options& opts, const std::function<void(int)>& setup,
                   const std::function<double()>& pass,
                   const std::function<void()>& after_pass, int passes_per_setup,
                   CpuPin* rotate) {
  LoopTimes t;
  Tracer& tracer = Tracer::get();
  const int pair = opts.trace ? 2 : 1;
  int setups = 0;
  const auto one_setup = [&] {
    const bool traced = opts.trace && setups % 2 == 1;
    tracer.set_on(traced);
    if (rotate) rotate->pin(static_cast<std::size_t>(setups / pair));
    const auto t0 = Clock::now();
    {
      SpanScope span("setup");
      setup(setups++);
    }
    (traced ? t.setup_traced_s : t.setup_s).push_back(seconds_since(t0));
  };
  do {
    one_setup();
  } while (passes_per_setup == 0 && setups < pair);  // one, or a traced/untraced pair
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    if (passes_per_setup > 0 && i > 0 && i % passes_per_setup == 0) one_setup();
    const bool traced = opts.trace && i % 2 == 1;
    tracer.set_on(traced);
    if (rotate) rotate->pin(static_cast<std::size_t>(i / pair));
    double measured = 0.0;
    {
      SpanScope span("pass");
      measured = pass();
    }
    (traced ? t.pass_traced_s : t.pass_s).push_back(measured);
    if (!traced) t.pass_cpu.push_back(rotate ? rotate->slot() : 0);
    if (after_pass) after_pass();
    const bool both_sides = !opts.trace || i >= 1;
    if (both_sides && seconds_since(start) >= opts.seconds) break;
  }
  tracer.set_on(false);
  if (rotate) rotate->release();
  return t;
}

void Latencies::add_block(Series& s, const std::vector<double>& block, int cpu) const {
  if (block.empty()) return;
  s.agg.push_back(median(block));
  s.cpu.push_back(cpu);
  if (keep_ops) s.ops.insert(s.ops.end(), block.begin(), block.end());
}

StoreBatches::StoreBatches(std::vector<pdc::eval::CellSpec> cells,
                           const std::vector<std::uint64_t>& reference, Report& report)
    : cells_(std::move(cells)) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const pdc::eval::CellResult r = pdc::eval::run_cell(cells_[i]);
    results_.push_back(pdc::eval::encode_result(r));
    failed += r.status != pdc::eval::CellStatus::Error && fnv1a(results_.back()) == reference[i]
                  ? 0
                  : 1;
  }
  report.ops(cells_.size(), failed);
}

void StoreBatches::batch(Latencies& out, Report& report, int cpu) {
  const std::size_t n = cells_.size();
  const std::size_t ops = (kBatchOps + n - 1) / n * n;
  std::uint64_t failed = 0;
  {
    SpanScope span("evald.store_miss_batch");
    span.count(0, static_cast<std::int64_t>(ops));
    double batch_us = 0.0;
    for (std::size_t done = 0; done < ops; done += n) {
      (void)store_.invalidate_all();
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        const auto f0 = Clock::now();
        const auto spec = pdc::eval::encode_spec(cells_[i]);
        const std::uint64_t key = pdc::eval::cell_key(spec);
        failed += store_.lookup(key, spec).has_value() ? 1 : 0;
        store_.insert(key, spec, results_[i], false);
        if (out.keep_ops && done == 0) out.miss.ops.push_back(us_since(f0));
      }
      batch_us += us_since(t0);
    }
    out.miss.agg.push_back(batch_us / static_cast<double>(ops));
    out.miss.cpu.push_back(cpu);
  }
  {
    SpanScope span("evald.store_hit_batch");
    span.count(0, static_cast<std::int64_t>(ops));
    const auto t0 = Clock::now();
    for (std::size_t done = 0; done < ops; done += n) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto f0 = Clock::now();
        const auto spec = pdc::eval::encode_spec(cells_[i]);
        const auto cached = store_.lookup(pdc::eval::cell_key(spec), spec);
        const bool decoded = cached && pdc::eval::decode_result(cached->result).has_value();
        if (out.keep_ops && done == 0) out.hit.ops.push_back(us_since(f0));
        failed += decoded && cached->result == results_[i] ? 0 : 1;
      }
    }
    out.hit.agg.push_back(us_since(t0) / static_cast<double>(ops));
    out.hit.cpu.push_back(cpu);
  }
  report.ops(2 * ops, failed);
}

namespace {

void report_tail(Report& report, const std::string& prefix, const std::vector<double>& samples) {
  const Tail t = tail_of(samples);
  report.layer(prefix + ".tail", t.value);
  report.layer(prefix + ".tail_q", t.q);
  report.layer(prefix + ".samples", static_cast<double>(t.samples));
  if (!t.enough) {
    report.note(prefix + ".tail",
                "fewer than 20 samples: no quantile has ten beyond it; the median is shown");
  }
}

}  // namespace

double overhead(const std::vector<double>& untraced, const std::vector<double>& traced) {
  if (untraced.empty() || traced.empty()) return 0.0;
  const double base = median(untraced);
  return base > 0.0 ? median(traced) / base - 1.0 : 0.0;
}

void report_end_to_end(Report& report, const LoopTimes& t, const Latencies& untraced) {
  report.e2e("setup_s", median(t.setup_s), "s");
  report.e2e("pass_s", balanced_median(t.pass_s, t.pass_cpu), "s");
  report.e2e("cell_p50_us", balanced_median(untraced.cell.agg, untraced.cell.cpu), "us");
  report.e2e("hit_p50_us", balanced_median(untraced.hit.agg, untraced.hit.cpu), "us");
  report.e2e("miss_p50_us", balanced_median(untraced.miss.agg, untraced.miss.cpu), "us");
  report.info("setups", static_cast<double>(t.setup_s.size() + t.setup_traced_s.size()));
  report.info("passes", static_cast<double>(t.pass_s.size()));
}

void report_trace_summary(Report& report, const LoopTimes& t, const Latencies& untraced,
                          const Latencies& traced) {
  report_tail(report, "pass_s", t.pass_s);
  report_tail(report, "cell_us", untraced.cell.ops);
  report_tail(report, "hit_us", untraced.hit.ops);
  report_tail(report, "miss_us", untraced.miss.ops);
  report.layer("overhead.setup_s", overhead(t.setup_s, t.setup_traced_s));
  report.layer("overhead.pass_s", overhead(t.pass_s, t.pass_traced_s));
  report.layer("overhead.cell_p50_us", overhead(untraced.cell.agg, traced.cell.agg));
  report.layer("overhead.hit_p50_us", overhead(untraced.hit.agg, traced.hit.agg));
  report.layer("overhead.miss_p50_us", overhead(untraced.miss.agg, traced.miss.agg));
}

}  // namespace perfbench
