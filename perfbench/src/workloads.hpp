// perfbench -- the three workloads and the per-layer probes.
//
//   paper   every artefact the reproduction publishes, regenerated per pass
//           on the library's default sweep width
//   fabric  the scale study, one cell at a time on the calling thread
//   service an in-process evaluation daemon driven by one client doing
//           single-cell lookups (reads, never-seen writes, invalidations)
//
// Every workload reports the same six end-to-end metrics (see
// perfbench/layers.json for what each one means on each workload and
// which layer metrics should move it). A traced run alternates traced and
// untraced passes (or op blocks) so it can report its own overhead, and
// derives the per-layer metrics from the recorded spans.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "eval/cell.hpp"
#include "evald/store.hpp"
#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string out_dir;  ///< run outputs: store, socket, spans, report
};

void run_paper(const Options& opts, Report& report);
void run_fabric(const Options& opts, Report& report);
void run_service(const Options& opts, Report& report);

/// Per-layer probes that need no workload state: kernel entry points, the
/// event loop, pack/unpack, network cost models, cluster construction,
/// the evald codec and store, model fitting and scheduler streams. Run in
/// every traced run.
void run_layer_probes(const Options& opts, Report& report);

// -- shared helpers -----------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Moves the whole process -- every thread it has, and so every thread
/// they create -- to one of the CPUs it may run on; release() and the
/// destructor give every thread the affinity the creating thread had. On a
/// shared virtual machine each vCPU runs at the speed its host neighbours
/// leave it, and one vCPU ran the same single-threaded pass 1.5x slower
/// than another for minutes on end. An unpinned thread stays on whichever
/// vCPU it started on, so a run's figures followed that draw; pinning pass
/// k to CPU k and weighing every CPU alike (balanced_median) makes each run
/// sample all of them.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

  /// The number of CPUs the thread was allowed to run on.
  [[nodiscard]] int cpus() const noexcept { return static_cast<int>(allowed_.size()); }
  /// Pins to the allowed CPU number `k` modulo cpus(); returns that CPU,
  /// or -1 when the calling thread could not be pinned.
  int pin(std::size_t k);
  /// The slot (k modulo cpus()) of the last pin(k); 0 before any.
  [[nodiscard]] int slot() const noexcept { return slot_; }
  void release();

 private:
  cpu_set_t saved_{};
  std::vector<int> allowed_;
  int slot_{0};
};

/// Digest of a cell result's canonical encoding.
[[nodiscard]] std::uint64_t result_digest(const pdc::eval::CellResult& result);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// The set-up and pass loop every workload runs. Without
/// `passes_per_setup`, `setup(i)` runs once first (twice in a traced run,
/// one of them traced); with it, `setup(i)` runs once first and again
/// before every `passes_per_setup` further passes, so the set-ups sample
/// the same stretch of time as the passes. `pass()` repeats until `opts.seconds` have gone by; each pass
/// returns the time it measured (its wall time, or for the service the
/// summed client round trips). In a traced run every second set-up and
/// pass runs with the tracer on; the untraced ones give the end-to-end
/// figures. `after_pass`, if given, runs after each pass under the same
/// tracer state, outside the pass's time. With `rotate`, set-up i and
/// pass i run pinned to CPU i (in a traced run a traced/untraced pair
/// shares one CPU), after_pass on its pass's CPU, and `pass_cpu` records
/// the CPU slot of each untraced pass.
struct LoopTimes {
  std::vector<double> setup_s, setup_traced_s;
  std::vector<double> pass_s, pass_traced_s;
  std::vector<int> pass_cpu;
};
[[nodiscard]] LoopTimes run_loop(const Options& opts, const std::function<void(int)>& setup,
                                 const std::function<double()>& pass,
                                 const std::function<void()>& after_pass = {},
                                 int passes_per_setup = 0, CpuPin* rotate = nullptr);

/// One side (untraced or traced) of a run's latency samples. On a shared
/// 4-vCPU virtual machine (Xeon, 2.1 GHz) single-thread speed was seen to
/// flip between a fast and a slow state every 0.1-1 s, so a median over
/// single short ops lands in whichever state held the larger share of that
/// run and jumps between runs. The end-to-end figures are therefore
/// balanced medians (see balanced_median) over aggregates that each span
/// several flips: per pass (or block of service ops) the median of its
/// single ops, per store batch the mean op, each tagged with the CPU slot
/// it ran on (see CpuPin). Single ops are kept only in a traced run, for
/// the tails, so an untraced run's memory does not grow with the ops it
/// completes.
struct Latencies {
  struct Series {
    std::vector<double> agg;  ///< per pass or batch: what the e2e figure is over
    std::vector<int> cpu;     ///< the CPU slot of each aggregate
    std::vector<double> ops;  ///< single ops, when kept (tails)
  };
  explicit Latencies(bool keep) : keep_ops(keep) {}

  bool keep_ops;
  Series cell;  ///< eval::run_cell host latency
  Series hit;   ///< lookups served from a store
  Series miss;  ///< lookups that compute (service) or store (store batches)

  /// One pass's single-op latencies, measured on CPU slot `cpu`: their
  /// median joins `s.agg` (none if the block is empty) and the ops join
  /// `s.ops` when kept.
  void add_block(Series& s, const std::vector<double>& block, int cpu = 0) const;
};

/// The store's side of serving this workload's own cells, in process: an
/// in-memory evald::Store, no simulation (cell_p50_us times that). One
/// batch() stores every cell into an emptied store until kBatchOps inserts
/// are done (encode_spec, cell_key, a missing lookup, insert of the cell's
/// result bytes), then fetches every cell until kBatchOps fetches are done
/// (encode_spec, cell_key, lookup, decode_result), each reply compared byte
/// for byte with the stored result. The workloads run one batch after every
/// timed pass, so the batches sample the same stretch of time as the
/// passes; `cpu` is the CPU slot the batch runs on.
class StoreBatches {
 public:
  static constexpr std::size_t kBatchOps = 100000;

  /// Runs every cell once; a result whose digest differs from `reference`
  /// (or an Error) is a failed op.
  StoreBatches(std::vector<pdc::eval::CellSpec> cells,
               const std::vector<std::uint64_t>& reference, Report& report);

  void batch(Latencies& into, Report& report, int cpu);

 private:
  std::vector<pdc::eval::CellSpec> cells_;
  std::vector<std::vector<std::byte>> results_;
  pdc::evald::Store store_;  // in memory: the service workload times the log
};

/// traced / untraced - 1 of two medians (0 when either side is empty).
[[nodiscard]] double overhead(const std::vector<double>& untraced,
                              const std::vector<double>& traced);

/// The end-to-end metrics but peak_rss_mb, from the loop times and the
/// untraced samples.
void report_end_to_end(Report& report, const LoopTimes& t, const Latencies& untraced);

/// The traced run's tails, sample counts and tracing overheads.
void report_trace_summary(Report& report, const LoopTimes& t, const Latencies& untraced,
                          const Latencies& traced);

}  // namespace perfbench
