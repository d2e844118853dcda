// perfbench -- entry point.
//
//   perfbench --workload paper|fabric|service --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit ID]
//
// Prints the full report as one JSON line, then the result object as the
// last line of standard output. Exits 1 when any op failed, 2 on a usage
// or environment error (without printing a result).
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "eval/sweep.hpp"
#include "kernels/dispatch.hpp"
#include "mp/api.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper|fabric|service --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The library defaults are what the benchmark measures: drop inherited
  // overrides before any library call reads them.
  ::unsetenv("PDC_SWEEP_THREADS");
  ::unsetenv("PDC_SIM_THREADS");
  const auto process_start = perfbench::Clock::now();

  perfbench::Options opts;
  opts.out_dir = ".bench_build/perfbench-out";
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opts.workload = value;
      } else if (key == "--seed") {
        opts.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        opts.trace = value == "1";
      } else if (key == "--out-dir") {
        opts.out_dir = value;
      } else if (key == "--commit") {
        commit = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (opts.workload != "paper" && opts.workload != "fabric" && opts.workload != "service") {
    return usage("--workload must be paper, fabric or service");
  }
  if (!have_seed || opts.seconds <= 0) {
    return usage("--seed is required and --seconds must be positive");
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build (need Release)\n",
                 build_type.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", opts.out_dir.c_str());
    return 2;
  }

  perfbench::Report report;
  report.note("workload", opts.workload);
  report.note("seed", std::to_string(opts.seed));
  report.note("commit", commit);
  report.note("build_type", build_type);
  report.note("compiler", PERFBENCH_COMPILER);
  report.note("simd", pdc::kernels::simd_compiled() ? "avx2 compiled in" : "scalar only");
  report.note("trace_probes",
              "library trace probes (PDC_TRACE) are compiled out in the default build; "
              "spans come from the benchmark's own calls");
  report.info("nproc", std::thread::hardware_concurrency());
  report.info("sweep_threads", pdc::eval::sweep_threads());
  report.info("sim_threads", pdc::mp::sim_threads());
  report.info("seconds", opts.seconds);
  report.info("trace", opts.trace ? 1 : 0);

  try {
    if (opts.workload == "paper") {
      perfbench::run_paper(opts, report);
    } else if (opts.workload == "fabric") {
      perfbench::run_fabric(opts, report);
    } else {
      perfbench::run_service(opts, report);
    }
    if (opts.trace) {
      perfbench::run_layer_probes(opts, report);
      if (opts.workload == "service") {
        const double explained = report.layer_value("evald.ping_rtt_us") +
                                 (report.layer_value("evald.codec_ns") +
                                  report.layer_value("evald.store_lookup_ns")) *
                                     1e-3;
        const double hit = report.e2e_value("hit_p50_us");
        report.layer("evald.hit_share_explained", hit > 0 ? explained / hit : 0.0);
      } else {
        report.absent("evald.hit_share_explained", "measured on the service workload");
        for (const char* name : {"evald.ping_rtt_us", "evald.replay_s",
                                 "evald.probe_steps_per_lookup", "evald.log_bytes",
                                 "evald.hit_rtt_p99_us", "evald.miss_rtt_p99_us",
                                 "fault.retransmits_per_cell", "fault.miss_cell_us"}) {
          report.absent(name, "needs the service workload's daemon and script");
        }
      }
      perfbench::Tracer& tracer = perfbench::Tracer::get();
      report.layer("trace.spans", static_cast<double>(tracer.span_count()));
      report.layer("trace.span_mb", static_cast<double>(tracer.bytes()) / (1024.0 * 1024.0));
      const std::string spans_path = opts.out_dir + "/spans-" + opts.workload + "-seed" +
                                     std::to_string(opts.seed) + ".csv";
      if (!tracer.write_csv(spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
        return 2;
      }
      report.note("spans_file", spans_path);
      report.absent_unset("not measured in this run");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n", opts.workload.c_str(), e.what());
    return 2;
  }
  report.info("run_wall_s", perfbench::seconds_since(process_start));
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    report.info("run_user_s", static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6);
    report.info("run_sys_s", static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6);
    report.info("minor_faults", static_cast<double>(ru.ru_minflt));
    report.info("involuntary_switches", static_cast<double>(ru.ru_nivcsw));
  }

  const std::string detail = report.detail_json();
  const std::string report_path = opts.out_dir + "/report-" + opts.workload + "-seed" +
                                  std::to_string(opts.seed) + "-trace" +
                                  (opts.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", detail.c_str());
    std::fclose(f);
  }
  std::printf("%s\n%s\n", detail.c_str(), report.result_json(opts.trace).c_str());
  return report.correct() ? 0 : 1;
}
