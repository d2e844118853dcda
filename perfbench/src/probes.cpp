// Per-layer probes for the traced run: each times calls into one layer's
// public functions in isolation, under a span, so its metric is computed
// from spans like every other per-layer figure.
#include <complex>
#include <filesystem>

#include "eval/sched_cell.hpp"
#include "evald/store.hpp"
#include "host/platform.hpp"
#include "inputs.hpp"
#include "kernels/dct.hpp"
#include "kernels/fft.hpp"
#include "kernels/mc.hpp"
#include "kernels/sort.hpp"
#include "model/model.hpp"
#include "mp/pack.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"
#include "sim/simulation.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pdc::host::PlatformId;

constexpr PlatformId kFabrics[] = {PlatformId::ClusterFlat, PlatformId::ClusterFatTree,
                                   PlatformId::ClusterDragonfly};
constexpr const char* kFabricNames[] = {"flat", "fattree", "dragonfly"};

/// Make `v` observable so the timed work that produced it is not elided.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Kernel entry points at the AplConfig default sizes: one 512x512 image of
/// 8x8 forward DCTs, one 64x64 2-D FFT (row then column passes), one sort
/// of 500000 keys, one Monte Carlo batch of 1.5M samples.
void kernels_probe() {
  const pdc::eval::AplConfig cfg;
  SplitMix64 rng(7);
  double block[8][8];
  double coeffs[8][8];
  for (auto& row : block) {
    for (double& v : row) v = rng.uniform() * 255.0;
  }
  const int blocks = (cfg.image_size / 8) * (cfg.image_size / 8);
  double sink = 0.0;
  for (int rep = 0; rep < 9; ++rep) {
    SpanScope span("probe.kernels.dct");
    for (int b = 0; b < blocks; ++b) {
      block[0][0] = static_cast<double>(b & 0xFF);
      pdc::kernels::forward_dct(block, coeffs);
      sink += coeffs[0][0];
    }
  }
  const auto n = static_cast<std::size_t>(cfg.fft_n);
  std::vector<std::complex<double>> grid(n * n), column(n);
  for (auto& c : grid) c = {rng.uniform(), rng.uniform()};
  for (int rep = 0; rep < 31; ++rep) {
    SpanScope span("probe.kernels.fft");
    for (std::size_t r = 0; r < n; ++r) pdc::kernels::fft1d({grid.data() + r * n, n}, false);
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < n; ++r) column[r] = grid[r * n + c];
      pdc::kernels::fft1d(column, false);
      for (std::size_t r = 0; r < n; ++r) grid[r * n + c] = column[r];
    }
  }
  std::vector<std::int32_t> keys(static_cast<std::size_t>(cfg.sort_keys));
  for (auto& k : keys) k = static_cast<std::int32_t>(rng.next());
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<std::int32_t> copy = keys;
    SpanScope span("probe.kernels.sort");
    pdc::kernels::sort_i32(copy);
    sink += copy[copy.size() / 2];
  }
  for (int rep = 0; rep < 5; ++rep) {
    pdc::sim::Rng mc(cfg.seed + static_cast<std::uint64_t>(rep));
    SpanScope span("probe.kernels.mc");
    sink += pdc::kernels::inv_quad_sum(mc, cfg.mc_samples);
  }
  keep(sink);
}

/// Schedule + dispatch of no-op events on sim::Simulation.
void sim_probe() {
  constexpr int kEvents = 200000;
  for (int rep = 0; rep < 5; ++rep) {
    pdc::sim::Simulation sim;
    SpanScope span("probe.sim.dispatch");
    span.count(0, kEvents);
    std::int64_t fired = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.schedule_at(pdc::sim::TimePoint{i % 1000}, [&fired] { ++fired; });
    }
    sim.run();
    span.count(1, fired);
  }
}

/// pack_vector + unpack_vector of a 64 KiB int32 payload.
void mp_probe() {
  constexpr int kReps = 2000;
  const std::vector<std::int32_t> v(16384, 7);
  std::int64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    SpanScope span("probe.mp.pack");
    span.count(0, kReps * 64);  // KiB moved
    for (int i = 0; i < kReps; ++i) {
      const pdc::mp::Payload p = pdc::mp::pack_vector(v);
      sink += pdc::mp::unpack_vector<std::int32_t>(*p)[static_cast<std::size_t>(i) % v.size()];
    }
  }
  keep(sink);
}

/// Cluster construction and Network::transfer at P = 4096 per fabric.
void net_host_probe() {
  constexpr int kProcs = 4096;
  constexpr int kTransfers = 20000;
  for (std::size_t f = 0; f < std::size(kFabrics); ++f) {
    for (int rep = 0; rep < 9; ++rep) {
      pdc::sim::Simulation sim;
      SpanScope span("probe.host.cluster");
      const pdc::host::Cluster cluster(sim, kFabrics[f], kProcs);
      span.count(0, static_cast<std::int64_t>(f));
    }
    pdc::sim::Simulation sim;
    pdc::host::Cluster cluster(sim, kFabrics[f], kProcs);
    SplitMix64 pairs(11 + f);
    for (int rep = 0; rep < 5; ++rep) {
      SpanScope span("probe.net.transfer");
      span.count(0, static_cast<std::int64_t>(f));
      span.count(1, kTransfers);
      for (int i = 0; i < kTransfers; ++i) {
        const auto src = static_cast<pdc::net::NodeId>(pairs.below(kProcs));
        const auto dst = static_cast<pdc::net::NodeId>((src + 1 + pairs.below(kProcs - 1)) % kProcs);
        (void)cluster.network().transfer(src, dst, 4096);
      }
    }
  }
}

/// The evald codec (encode_spec + cell_key + decode_result) and Store
/// lookup/insert, over the service workload's read set.
void evald_probe(const Options& opts) {
  const std::vector<pdc::eval::CellSpec> specs = service_read_set();
  std::vector<std::vector<std::byte>> spec_bytes, results;
  std::vector<std::uint64_t> keys;
  for (const auto& s : specs) {
    spec_bytes.push_back(pdc::eval::encode_spec(s));
    keys.push_back(pdc::eval::cell_key(spec_bytes.back()));
    results.push_back(pdc::eval::encode_result(pdc::eval::run_cell(s)));
  }
  std::size_t sink = 0;
  for (int rep = 0; rep < 20; ++rep) {
    SpanScope span("probe.evald.codec");
    span.count(0, static_cast<std::int64_t>(specs.size()));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto bytes = pdc::eval::encode_spec(specs[i]);
      sink += pdc::eval::cell_key(bytes) & 1;
      sink += pdc::eval::decode_result(results[i]).has_value() ? 1 : 0;
    }
  }
  pdc::evald::Store memory;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    memory.insert(keys[i], spec_bytes[i], results[i], false);
  }
  for (int rep = 0; rep < 20; ++rep) {
    SpanScope span("probe.evald.store_lookup");
    span.count(0, static_cast<std::int64_t>(50 * specs.size()));
    for (int k = 0; k < 50; ++k) {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        sink += memory.lookup(keys[i], spec_bytes[i]).has_value() ? 1 : 0;
      }
    }
  }
  const std::string path = opts.out_dir + "/probe.store";
  std::filesystem::remove(path);
  {
    pdc::evald::Store persistent(path, pdc::eval::kModelVersion);
    SplitMix64 rng(substream(opts.seed, "probe.store"));
    std::vector<std::vector<std::byte>> fresh;
    for (int i = 0; i < 2000; ++i) {
      fresh.push_back(pdc::eval::encode_spec(faulted_cell(rng, rng.next())));
    }
    SpanScope span("probe.evald.store_insert");
    span.count(0, static_cast<std::int64_t>(fresh.size()));
    for (const auto& bytes : fresh) {
      persistent.insert(pdc::eval::cell_key(bytes), bytes, results.front(), false);
    }
  }
  std::filesystem::remove(path);
  keep(sink);
}

/// fit_model on 40 broadcast observations (p4, SUN/Ethernet, 8 sizes x 5
/// process counts).
void model_probe() {
  std::vector<pdc::model::Observation> obs;
  for (const int procs : {2, 3, 4, 6, 8}) {
    for (const std::int64_t bytes : pdc::eval::paper_message_sizes()) {
      pdc::eval::TplCell c{pdc::eval::Primitive::Broadcast, PlatformId::SunEthernet,
                           pdc::mp::ToolKind::P4, bytes, procs, 0, {}};
      const auto r = pdc::eval::run_cell(pdc::eval::CellSpec::of(c));
      obs.push_back({static_cast<double>(bytes), static_cast<double>(procs), r.tpl_ms});
    }
  }
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    SpanScope span("probe.model.fit");
    sink += pdc::model::fit_model(obs).c0;
  }
  keep(sink);
}

/// The fabric workload's twelve job streams: generate_workload, then
/// run_schedule on a 256-node cluster.
void sched_probe(const Options& opts) {
  SplitMix64 streams(substream(opts.seed, "fabric.sched"));
  for (const PlatformId fabric : kFabrics) {
    for (int i = 0; i < 4; ++i) {
      pdc::sched::WorkloadSpec spec{.seed = streams.next(),
                                    .arrival_rate_hz = 2000.0,
                                    .njobs = 200,
                                    .users = 4,
                                    .templates = pdc::eval::default_job_mix()};
      std::vector<pdc::sched::JobSpec> jobs;
      {
        SpanScope span("probe.sched.generate");
        jobs = pdc::sched::generate_workload(spec);
      }
      SpanScope span("probe.sched.schedule");
      span.count(0, static_cast<std::int64_t>(jobs.size()));
      const auto out = pdc::sched::run_schedule({.platform = fabric, .nodes = 256}, std::move(jobs));
      span.count(1, static_cast<std::int64_t>(out.events));
    }
  }
}

std::vector<double> counter_values(const std::vector<Span>& spans, const char* name, int k) {
  std::vector<double> out;
  for (const Span* s : spans_named(spans, name)) out.push_back(static_cast<double>(s->c[k]));
  return out;
}

}  // namespace

void run_layer_probes(const Options& opts, Report& report) {
  Tracer& tracer = Tracer::get();
  tracer.set_on(true);
  {
    SpanScope root("probes");
    kernels_probe();
    sim_probe();
    mp_probe();
    net_host_probe();
    evald_probe(opts);
    model_probe();
    sched_probe(opts);
  }
  tracer.set_on(false);
  const std::vector<Span> spans = spans_under(tracer.spans(), "probes");
  const auto ms = [&](const char* name) { return median(durations_us(spans, name)) * 1e-3; };
  /// Median over spans named `name` of duration / counter k, in ns.
  const auto ns_per = [&](const char* name, int k) {
    std::vector<double> v;
    for (const Span* s : spans_named(spans, name)) {
      if (s->c[k] > 0) v.push_back(static_cast<double>(s->end_ns - s->start_ns) / s->c[k]);
    }
    return median(v);
  };
  report.layer("kernels.dct_ms", ms("probe.kernels.dct"));
  report.layer("kernels.fft_ms", ms("probe.kernels.fft"));
  report.layer("kernels.sort_ms", ms("probe.kernels.sort"));
  report.layer("kernels.mc_ms", ms("probe.kernels.mc"));
  report.layer("sim.dispatch_ns", ns_per("probe.sim.dispatch", 0));
  report.layer("mp.pack_ns_per_kb", ns_per("probe.mp.pack", 0));

  std::vector<double> build_us;
  for (std::size_t f = 0; f < std::size(kFabrics); ++f) {
    std::vector<double> built, per_transfer;
    for (const Span* s : spans_named(spans, "probe.host.cluster")) {
      if (s->c[0] == static_cast<std::int64_t>(f)) built.push_back(s->seconds() * 1e6);
    }
    for (const Span* s : spans_named(spans, "probe.net.transfer")) {
      if (s->c[0] == static_cast<std::int64_t>(f)) {
        per_transfer.push_back(static_cast<double>(s->end_ns - s->start_ns) / s->c[1]);
      }
    }
    build_us.push_back(median(built));
    report.layer(std::string("net.transfer_ns.") + kFabricNames[f], median(per_transfer));
  }
  report.layer("host.cluster_build_us", (build_us[0] + build_us[1] + build_us[2]) / 3.0);
  report.note("host.cluster_build_us", "mean over the three fabrics of the median P=4096 build");

  report.layer("evald.codec_ns", ns_per("probe.evald.codec", 0));
  report.layer("evald.store_lookup_ns", ns_per("probe.evald.store_lookup", 0));
  report.layer("evald.store_insert_us", ns_per("probe.evald.store_insert", 0) * 1e-3);
  report.layer("model.fit_model_ms", ms("probe.model.fit"));
  report.layer("sched.generate_us", median(durations_us(spans, "probe.sched.generate")));
  report.layer("sched.schedule_ms", ms("probe.sched.schedule"));
  report.layer("sched.jobs", median(counter_values(spans, "probe.sched.schedule", 0)));
  report.layer("sched.events", median(counter_values(spans, "probe.sched.schedule", 1)));
}

}  // namespace perfbench
