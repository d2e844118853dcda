// The `service` workload: an in-process evaluation daemon (Unix socket,
// persistent store) driven closed-loop by one client doing single-cell
// lookups from a seeded script -- reads of stored cells, writes of
// never-seen faulted cells (simulate + insert + log append), and
// invalidations whose next read recomputes.
#include <filesystem>
#include <memory>

#include "evald/client.hpp"
#include "evald/server.hpp"
#include "inputs.hpp"
#include "mp/api.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pdc::eval::CellResult;
using pdc::eval::CellSpec;
using pdc::evald::Origin;

constexpr int kOpsPerPass = 1000;
/// A fresh set-up (empty store, daemon boot, warm, restart) runs before
/// every kPassesPerSetup passes. The set-ups so sample the whole run, and
/// the store never holds more than this many passes' writes, so peak RSS
/// does not grow with the ops a run fits into its seconds.
constexpr int kPassesPerSetup = 40;

class ServiceRun {
 public:
  ServiceRun(const Options& opts, Report& report)
      : report_(report),
        reads_(service_read_set()),
        socket_(opts.out_dir + "/service.sock"),
        store_(opts.out_dir + "/service.store"),
        script_(opts.seed, reads_.size()),
        invalidated_(reads_.size(), 0),
        untraced_(opts.trace),
        traced_(opts.trace) {}

  ~ServiceRun() {
    client_.reset();
    server_.reset();
    std::filesystem::remove(store_);
  }
  ServiceRun(const ServiceRun&) = delete;
  ServiceRun& operator=(const ServiceRun&) = delete;

  /// Reference results, daemon boot, one batched warm of the read set and
  /// a restart that replays the store log. Each set-up starts from an
  /// empty store; its daemon serves the passes up to the next set-up.
  void setup(int i) {
    client_.reset();
    server_.reset();
    std::filesystem::remove(store_);
    std::vector<std::vector<std::byte>> ref(reads_.size());
    std::uint64_t errors = 0;
    {
      SpanScope span("service.reference");
      for (std::size_t k = 0; k < reads_.size(); ++k) {
        const CellResult r = pdc::eval::run_cell(reads_[k]);
        errors += r.status == pdc::eval::CellStatus::Error;
        ref[k] = pdc::eval::encode_result(r);
      }
    }
    report_.ops(reads_.size(), errors);
    if (i > 0) report_.ops(1, ref == reference_ ? 0 : 1);
    if (i == 0) reference_ = std::move(ref);
    {
      SpanScope span("evald.boot");
      server_ = std::make_unique<pdc::evald::Server>(config());
      server_->start();
    }
    {
      SpanScope span("evald.warm");
      pdc::evald::Client warm(socket_);
      std::uint64_t bad = 0;
      for (const Origin o : warm.warm(reads_)) bad += o == Origin::Computed ? 0 : 1;
      report_.ops(reads_.size(), bad);
    }
    server_.reset();
    {
      SpanScope span("evald.restart");
      server_ = std::make_unique<pdc::evald::Server>(config());
      const auto recovered = server_->store().stats().recovered;
      span.count(0, static_cast<std::int64_t>(recovered));
      report_.ops(1, recovered == reads_.size() ? 0 : 1);
      server_->start();
    }
    std::fill(invalidated_.begin(), invalidated_.end(), 0);
  }

  /// kOpsPerPass scripted ops on CPU slot `cpu`; returns the summed
  /// client round trips.
  double pass(int cpu) {
    if (!client_) client_ = std::make_unique<pdc::evald::Client>(socket_);
    block_.hit.clear();
    block_.miss.clear();
    block_.cell.clear();
    double rtt_sum_us = 0.0;
    std::uint64_t bad = 0;
    for (int k = 0; k < kOpsPerPass; ++k) {
      const ServiceOp op = script_.next();
      try {
        bool ok = false;
        rtt_sum_us += execute(op, ok);
        bad += ok ? 0 : 1;
      } catch (const std::exception&) {
        ++bad;
        client_ = std::make_unique<pdc::evald::Client>(socket_);  // throws if the daemon died
      }
    }
    report_.ops(kOpsPerPass, bad);
    Latencies& into = Tracer::get().on() ? traced_ : untraced_;
    into.add_block(into.hit, block_.hit, cpu);
    into.add_block(into.miss, block_.miss, cpu);
    into.add_block(into.cell, block_.cell, cpu);
    return rtt_sum_us * 1e-6;
  }

  /// Ping round trips on the benchmark's connection (traced runs).
  void ping_probe() {
    for (int i = 0; i < 2000; ++i) {
      SpanScope span("evald.ping");
      if (!client_->ping()) report_.ops(1, 1);
    }
  }

  /// Store counters at the end of the run, as a span.
  void store_stats_span() {
    const pdc::evald::StoreStats s = server_->store().stats();
    SpanScope span("evald.store_stats");
    span.count(0, static_cast<std::int64_t>(s.probe_steps));
    span.count(1, static_cast<std::int64_t>(s.hits + s.misses));
    span.count(2, static_cast<std::int64_t>(s.log_bytes));
    span.count(3, static_cast<std::int64_t>(s.entries));
  }

  [[nodiscard]] const Latencies& untraced() const noexcept { return untraced_; }
  [[nodiscard]] const Latencies& traced() const noexcept { return traced_; }

 private:
  [[nodiscard]] pdc::evald::ServerConfig config() const {
    return {.socket_path = socket_, .store_path = store_};
  }

  /// One op: returns its round trip in microseconds; `ok` is the untimed
  /// byte-compare of the reply against a direct run_cell of the same spec.
  double execute(const ServiceOp& op, bool& ok) {
    switch (op.kind) {
      case ServiceOp::Kind::Read: {
        const bool recompute = invalidated_[op.index] != 0;
        invalidated_[op.index] = 0;
        SpanScope span("evald.lookup");
        const auto t0 = Clock::now();
        const auto got = client_->lookup(reads_[op.index]);
        const double rtt = us_since(t0);
        span.count(0, recompute ? 2 : 0);
        if (!recompute) block_.hit.push_back(rtt);
        ok = got.origin == (recompute ? Origin::Computed : Origin::Cache) &&
             got.result.status != pdc::eval::CellStatus::Error &&
             pdc::eval::encode_result(got.result) == reference_[op.index];
        return rtt;
      }
      case ServiceOp::Kind::Write: {
        SpanScope span("evald.lookup");
        span.count(0, 1);
        const auto t0 = Clock::now();
        const auto got = client_->lookup(op.spec);
        const double rtt = us_since(t0);
        block_.miss.push_back(rtt);
        const CellResult direct = direct_cell(op.spec);
        ok = got.origin == Origin::Computed &&
             got.result.status != pdc::eval::CellStatus::Error &&
             direct.status != pdc::eval::CellStatus::Error &&
             pdc::eval::encode_result(got.result) == pdc::eval::encode_result(direct);
        return rtt;
      }
      case ServiceOp::Kind::Invalidate: {
        const bool cached = invalidated_[op.index] == 0;
        SpanScope span("evald.invalidate");
        const auto t0 = Clock::now();
        const bool removed = client_->invalidate(reads_[op.index]);
        const double rtt = us_since(t0);
        invalidated_[op.index] = 1;
        ok = removed == cached;
        return rtt;
      }
    }
    return 0.0;
  }

  /// The untimed reference for a write: eval::run_cell of the same spec
  /// on this thread (its own latency is the workload's cell_p50_us).
  CellResult direct_cell(const CellSpec& spec) {
    SpanScope span("fault.direct_cell");
    const auto retransmits0 = pdc::mp::transport_accumulator().transport.retransmits;
    const auto t0 = Clock::now();
    CellResult r = pdc::eval::run_cell(spec);
    block_.cell.push_back(us_since(t0));
    span.count(0, pdc::mp::transport_accumulator().transport.retransmits - retransmits0);
    return r;
  }

  Report& report_;
  std::vector<CellSpec> reads_;
  std::vector<std::vector<std::byte>> reference_;
  std::string socket_;
  std::string store_;
  ServiceScript script_;
  std::vector<std::uint8_t> invalidated_;
  std::unique_ptr<pdc::evald::Server> server_;
  std::unique_ptr<pdc::evald::Client> client_;
  struct Block {
    std::vector<double> hit, miss, cell;
  };
  Block block_;  ///< the current pass's single-op latencies
  Latencies untraced_, traced_;
};

void service_layers(const std::vector<Span>& all, const std::vector<Span>& passes,
                    Report& report) {
  const auto direct = spans_named(passes, "fault.direct_cell");
  std::int64_t retransmits = 0;
  for (const Span* s : direct) retransmits += s->c[0];
  report.layer("fault.retransmits_per_cell",
               direct.empty() ? 0.0
                              : static_cast<double>(retransmits) / static_cast<double>(direct.size()));
  report.layer("fault.miss_cell_us", median(durations_us(passes, "fault.direct_cell")));

  std::vector<double> hit, miss;
  for (const Span* s : spans_named(passes, "evald.lookup")) {
    if (s->c[0] == 0) hit.push_back(s->seconds() * 1e6);
    if (s->c[0] == 1) miss.push_back(s->seconds() * 1e6);
  }
  report.layer("evald.hit_rtt_p99_us", percentile(hit, 0.99));
  report.layer("evald.miss_rtt_p99_us", percentile(miss, 0.99));
  report.layer("evald.ping_rtt_us", median(durations_us(all, "evald.ping")));
  report.layer("evald.replay_s", median(durations_us(all, "evald.restart")) * 1e-6);
  for (const Span* s : spans_named(all, "evald.store_stats")) {
    report.layer("evald.probe_steps_per_lookup",
                 s->c[1] > 0 ? static_cast<double>(s->c[0]) / static_cast<double>(s->c[1]) : 0.0);
    report.layer("evald.log_bytes", static_cast<double>(s->c[2]));
  }
  for (const char* name : {"eval.cells", "eval.busy_s", "eval.idle_share", "eval.app_cell_p50_us",
                           "eval.app_cell_p99_us", "eval.tpl_cell_p50_us",
                           "eval.sched_cell_p50_us"}) {
    report.absent(name, "cells run inside the daemon here; see fault.miss_cell_us for the direct cost");
  }
  for (const char* name : {"kernels.busy_s", "kernels.calls", "kernels.share",
                           "kernels.arena_grows", "mp.mailbox_pushes", "mp.scans_per_match",
                           "mp.pool_hit_rate", "sim.events", "sim.ns_per_event",
                           "model.measure_s", "model.fit_s"}) {
    report.absent(name, "not exercised by the service workload's timed ops");
  }
}

}  // namespace

void run_service(const Options& opts, Report& report) {
  // The client, the daemon's threads and the sweep worker pool its batched
  // warm starts all share one CPU, so the service figures are those of a
  // single-core deployment. With the pool free to use every CPU, the warm's
  // time followed the other tenants' load and set-up times spread by a
  // third between runs. The whole process moves to the next CPU before
  // every set-up and pass (see CpuPin).
  CpuPin cpus;
  ServiceRun run(opts, report);
  const LoopTimes t = run_loop(
      opts, [&](int i) { run.setup(i); }, [&] { return run.pass(cpus.slot()); }, {},
      kPassesPerSetup, &cpus);
  report_end_to_end(report, t, run.untraced());
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.info("ops_per_pass", kOpsPerPass);

  if (!opts.trace) return;
  Tracer& tracer = Tracer::get();
  tracer.set_on(true);
  run.ping_probe();
  run.store_stats_span();
  tracer.set_on(false);
  const std::vector<Span> all = tracer.spans();
  service_layers(all, spans_under(all, "pass"), report);
  report_trace_summary(report, t, run.untraced(), run.traced());
}

}  // namespace perfbench
