#include "eval/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "kernels/arena.hpp"
#include "kernels/hostwork.hpp"
#include "mp/api.hpp"
#include "mp/buffer_pool.hpp"

namespace pdc::eval {

namespace {

// One sweep's telemetry totals. parallel_for_index owns one as its
// collector: workers fold their thread-local deltas into it under a mutex
// (once per worker per sweep, so contention is irrelevant), and the
// submitter publishes the totals into its *own* thread-local snapshot when
// the sweep drains. The accessors below read that snapshot, so concurrent
// sweeps submitted from different threads (the evaluation daemon batching
// misses for several clients at once) each see exactly their own sweep's
// numbers -- the seed implementation kept one global aggregate, which
// raced. All folded fields are order-independent sums, hence thread-count-
// independent.
struct SweepTotals {
  SweepPoolStats pool;
  SweepFaultStats fault;
  SweepMailboxStats mailbox;
  SweepHostStats host;
};

// The most recent sweep's totals, per submitting thread. A nested sweep
// (an app cell that itself sweeps, run inline on a worker) publishes on
// the worker's thread, never the submitter's, so it cannot clobber the
// owning sweep's snapshot.
thread_local SweepTotals t_last_sweep;

// One sweep owns the worker pool at a time; nested/concurrent callers fall
// back to inline serial execution (see parallel_for_index).
std::mutex g_sweep_mu;

// This thread's cumulative layer counters in the totals' shape (the
// per-cell wall split is timed by the worker loop, not read here).
SweepTotals thread_counters() {
  SweepTotals t;
  t.pool = mp::BufferPool::local().stats();
  t.fault = mp::transport_accumulator();
  t.mailbox = mp::mailbox_accumulator();
  const auto work = kernels::host_work();
  const auto arena = kernels::Arena::local().stats();
  t.host.app_ns = work.app_ns;
  t.host.kernel_calls = work.calls;
  t.host.arena_takes = arena.takes;
  t.host.arena_grows = arena.grows;
  t.host.arena_bytes = arena.bytes_reserved;
  return t;
}

// col += now - before, field by field (every counter is monotonic per
// thread, so each difference is this worker's share of the sweep).
void fold_delta(SweepTotals& col, const SweepTotals& before, const SweepTotals& now) {
  col.pool.hits += now.pool.hits - before.pool.hits;
  col.pool.misses += now.pool.misses - before.pool.misses;
  col.pool.releases += now.pool.releases - before.pool.releases;
  col.pool.discards += now.pool.discards - before.pool.discards;
  col.pool.bytes_recycled += now.pool.bytes_recycled - before.pool.bytes_recycled;

  mp::TransportStats& t = col.fault.transport;
  t.retransmits += now.fault.transport.retransmits - before.fault.transport.retransmits;
  t.drops_seen += now.fault.transport.drops_seen - before.fault.transport.drops_seen;
  t.corrupt_rejected +=
      now.fault.transport.corrupt_rejected - before.fault.transport.corrupt_rejected;
  t.dup_discarded += now.fault.transport.dup_discarded - before.fault.transport.dup_discarded;
  fault::InjectionStats& f = col.fault.injected;
  f.frames += now.fault.injected.frames - before.fault.injected.frames;
  f.drops += now.fault.injected.drops - before.fault.injected.drops;
  f.flap_drops += now.fault.injected.flap_drops - before.fault.injected.flap_drops;
  f.corruptions += now.fault.injected.corruptions - before.fault.injected.corruptions;
  f.duplicates += now.fault.injected.duplicates - before.fault.injected.duplicates;
  f.reorders += now.fault.injected.reorders - before.fault.injected.reorders;

  col.mailbox.pushes += now.mailbox.pushes - before.mailbox.pushes;
  col.mailbox.matches += now.mailbox.matches - before.mailbox.matches;
  col.mailbox.items_scanned += now.mailbox.items_scanned - before.mailbox.items_scanned;
  col.mailbox.peak_depth_sum += now.mailbox.peak_depth_sum - before.mailbox.peak_depth_sum;

  col.host.app_ns += now.host.app_ns - before.host.app_ns;
  col.host.kernel_calls += now.host.kernel_calls - before.host.kernel_calls;
  col.host.arena_takes += now.host.arena_takes - before.host.arena_takes;
  col.host.arena_grows += now.host.arena_grows - before.host.arena_grows;
  col.host.arena_bytes += now.host.arena_bytes - before.host.arena_bytes;
}

/// Persistent sweep worker pool. The seed implementation spawned and
/// joined std::threads on every parallel_for_index call; on sweeps of
/// cheap cells (Table 3 regeneration: hundreds of ~100us simulations) the
/// spawn/join dominated the sweep itself. The pool spawns each helper
/// thread once, parks it on a condition variable, and hands every
/// subsequent sweep to the already-running threads via a generation
/// counter. Results are unchanged: workers still claim cells from the
/// caller's atomic counter, so scheduling stays dynamic and the output
/// vector is written at fixed indices.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run `work` on `helpers` pool threads while the caller runs it too;
  /// returns once every participant has finished. `work` must be callable
  /// concurrently and must not itself call run_on (parallel_for_index
  /// guarantees this via g_sweep_mu).
  void run_on(unsigned helpers, const std::function<void()>& work) {
    ensure_threads(helpers);
    {
      const std::scoped_lock lk(mu_);
      work_ = &work;
      want_ = helpers;
      claimed_ = 0;
      running_ = 0;
      ++generation_;
    }
    cv_.notify_all();
    work();  // the calling thread participates
    std::unique_lock lk(mu_);
    // The caller's claim loop only exits once every cell index was handed
    // out, so helpers that have not claimed a slot yet have nothing left to
    // do: clamp the job and wait only for helpers actually inside work().
    // On a loaded machine this lets the submitter finish without paying a
    // context switch per parked helper.
    want_ = claimed_;
    done_cv_.wait(lk, [&] { return running_ == 0; });
    work_ = nullptr;
  }

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    {
      const std::scoped_lock lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void ensure_threads(unsigned helpers) {
    const std::scoped_lock lk(mu_);
    while (threads_.size() < helpers) {
      threads_.emplace_back([this] { worker_main(); });
    }
  }

  void worker_main() {
    std::uint64_t seen = 0;
    std::unique_lock lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || (generation_ != seen && claimed_ < want_); });
      if (stop_) return;
      seen = generation_;
      ++claimed_;
      ++running_;
      const auto* work = work_;
      lk.unlock();
      (*work)();
      lk.lock();
      --running_;
      if (running_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;       ///< wakes parked workers for a new job
  std::condition_variable done_cv_;  ///< wakes the submitter when drained
  std::vector<std::thread> threads_;
  const std::function<void()>* work_{nullptr};
  unsigned want_{0};          ///< helper slots for the current generation
  unsigned claimed_{0};       ///< helpers that took a slot
  unsigned running_{0};       ///< helpers still inside work()
  std::uint64_t generation_{0};
  bool stop_{false};
};

}  // namespace

SweepPoolStats last_sweep_pool_stats() { return t_last_sweep.pool; }

SweepFaultStats last_sweep_fault_stats() { return t_last_sweep.fault; }

SweepMailboxStats last_sweep_mailbox_stats() { return t_last_sweep.mailbox; }

SweepHostStats last_sweep_host_stats() { return t_last_sweep.host; }

unsigned sweep_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("PDC_SWEEP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for_index(std::size_t n, unsigned threads,
                        const std::function<void(std::size_t)>& body) {
  if (n == 0) return;

  // One sweep drives the worker pool at a time. A nested call (an app cell
  // that itself sweeps) or a concurrent call from another thread runs its
  // cells serially on the calling thread: results are identical to the
  // fanned-out run and the pool never deadlocks. Telemetry is collected
  // either way -- every call owns its own collector and publishes to its
  // own thread's snapshot, so concurrent sweeps never see each other's
  // numbers. (A nested sweep's activity is also visible in the enclosing
  // sweep's totals: the outer worker's before/after delta brackets it.)
  std::unique_lock<std::mutex> owner(g_sweep_mu, std::try_to_lock);

  SweepTotals col;
  std::mutex col_mu;
  const std::size_t workers =
      owner.owns_lock()
          ? std::min<std::size_t>(n, static_cast<std::size_t>(sweep_threads(threads)))
          : 1;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(n);
  const std::function<void()> worker = [&]() noexcept {
    const SweepTotals before = thread_counters();
    std::uint64_t cells = 0;
    std::uint64_t wall_ns = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      wall_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      ++cells;
    }
    const SweepTotals now = thread_counters();
    const std::scoped_lock lock(col_mu);
    fold_delta(col, before, now);
    col.host.cells += cells;
    col.host.wall_ns += wall_ns;
  };

  if (workers <= 1) {
    worker();
  } else {
    WorkerPool::instance().run_on(static_cast<unsigned>(workers - 1), worker);
  }

  // Publish this sweep's totals on the submitting thread. run_on's drain
  // barrier (and the serial path trivially) gives the happens-before edge
  // from every worker's fold to this read.
  t_last_sweep = col;

  if (failed.load(std::memory_order_relaxed)) {
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);  // lowest failing index: deterministic
    }
  }
}

std::optional<double> tpl_cell_ms(const TplCell& cell) {
  switch (cell.primitive) {
    case Primitive::SendRecv:
      return sendrecv_ms(cell.platform, cell.tool, cell.bytes, cell.faults);
    case Primitive::Broadcast:
      return broadcast_ms(cell.platform, cell.tool, cell.procs, cell.bytes, cell.faults);
    case Primitive::Ring:
      return ring_ms(cell.platform, cell.tool, cell.procs, cell.bytes, /*rounds=*/4,
                     cell.faults);
    case Primitive::GlobalSum:
      return global_sum_ms(cell.platform, cell.tool, cell.procs, cell.global_sum_ints,
                           cell.faults);
  }
  throw std::logic_error("tpl_cell_ms: unknown primitive");
}

double app_cell_s(const AppCell& cell, const AplConfig& cfg) {
  return app_time_s(cell.platform, cell.tool, cell.app, cell.procs, cfg, cell.faults);
}

}  // namespace pdc::eval
