// perfbench -- in-memory span recorder for the traced run.
//
// The benchmark opens a span around each call it makes into a layer's
// public functions (a pass, a grid sweep, one run_cell, one client
// lookup, one probe). Each span holds its name, start and end on the
// steady clock, the span that caused it and up to six counters read at
// the same boundary (e.g. kernel nanoseconds, mailbox pushes). Spans stay
// in per-thread buffers until the run ends; the per-layer metrics are
// computed from them and they are written out once, at exit.
//
// Recording is off unless enabled, and a disabled SpanScope costs one
// relaxed load -- the untraced passes the end-to-end metrics come from
// pay nothing else.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name{""};  ///< a string literal
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0: a root span
  std::uint32_t thread{0};
  std::int64_t start_ns{0};  ///< since the tracer's epoch
  std::int64_t end_ns{0};
  std::int64_t c[6]{0, 0, 0, 0, 0, 0};

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  [[nodiscard]] static Tracer& get();

  [[nodiscard]] bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }

  /// Nanoseconds since the tracer was created.
  [[nodiscard]] std::int64_t now_ns() const noexcept;

  /// Every span recorded so far, all threads, ordered by id. Call only
  /// while no other thread records (between sweeps).
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::size_t span_count() const;
  /// Bytes the span buffers hold.
  [[nodiscard]] std::size_t bytes() const;

  /// Write every span as CSV (id,parent,thread,name,start_ns,end_ns,c0..c5);
  /// false if the file cannot be written.
  bool write_csv(const std::string& path) const;

  // SpanScope internals.
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);

 private:
  Tracer();
  struct Buffer {
    std::uint32_t thread{0};
    std::vector<Span> spans;
  };
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// The innermost open span on this thread (0 if none): the default parent.
[[nodiscard]] std::uint64_t current_span() noexcept;

/// RAII span. `parent` defaults to this thread's innermost open span; pass
/// it explicitly when the cause lives on another thread (a sweep cell).
class SpanScope {
 public:
  explicit SpanScope(const char* name) : SpanScope(name, current_span()) {}
  SpanScope(const char* name, std::uint64_t parent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  /// Set counter k (0..5) of this span.
  void count(int k, std::int64_t value) noexcept {
    if (active_) span_.c[k] = value;
  }

 private:
  bool active_{false};
  std::uint64_t saved_current_{0};
  Span span_{};
};

// -- queries over recorded spans --------------------------------------------

/// The spans whose outermost ancestor (the root of their parent chain) is
/// named `root` -- e.g. everything recorded inside the timed passes.
[[nodiscard]] std::vector<Span> spans_under(const std::vector<Span>& spans, const char* root);
/// Spans whose name equals `name`.
[[nodiscard]] std::vector<const Span*> spans_named(const std::vector<Span>& spans,
                                                   const char* name);
/// Durations in microseconds of spans named `name`.
[[nodiscard]] std::vector<double> durations_us(const std::vector<Span>& spans,
                                               const char* name);
/// Sum of durations in seconds of spans named `name`.
[[nodiscard]] double total_seconds(const std::vector<Span>& spans, const char* name);
/// Sum of counter k over spans named `name`.
[[nodiscard]] std::int64_t total_count(const std::vector<Span>& spans, const char* name, int k);

}  // namespace perfbench
