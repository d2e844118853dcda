// pdceval -- trace sink: a per-worker binary ring buffer of Records.
//
// One Sink belongs to exactly one capture on one thread (the simulation is
// single-threaded; sweep workers each run their own cells), so the emit
// path is lock-free by construction: a masked branch, one 56-byte store,
// two index bumps. The buffer is a power-of-two ring in flight-recorder
// mode -- when it saturates, the oldest record is overwritten and counted
// as dropped, so a bounded capture always holds the most recent window.
// The ring is reserved up front but filled as records arrive, so a capture
// pays for the records it holds, not for its capacity (the untouched part
// of the reservation is never written).
//
// Installation is via a thread-local current-sink pointer (ScopedCapture).
// Every build carries the instrumentation probes in the sim/mp/net/sched/
// kernels layers, each written as
//
//   if (trace::active()) {
//     trace::emit({.t_ns = sim.now().ns, .kind = trace::Kind::SendBegin, ...});
//   }
//
// so with no capture installed a probe costs one thread-local load and a
// null test. Installing a sink is per run (per sweep cell), so traced and
// untraced cells coexist in one process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace pdc::trace {

struct SinkStats {
  std::uint64_t emitted{0};  ///< records accepted past the category mask
  std::uint64_t dropped{0};  ///< of which: overwritten after saturation

  friend bool operator==(const SinkStats&, const SinkStats&) = default;
};

class Sink {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit Sink(std::size_t capacity = kDefaultCapacity,
                std::uint32_t mask = kDefaultMask)
      : mask_(mask) {
    while (capacity_ < capacity) capacity_ <<= 1;
    buf_.reserve(capacity_);
  }

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Store one record (emit order == chronological order for a
  /// single-threaded simulation). O(1), no allocation.
  void emit(const Record& r) noexcept {
    if ((mask_ & category(r.kind)) == 0) return;
    ++stats_.emitted;
    if (buf_.size() < capacity_) {
      buf_.push_back(r);  // within the reservation: never reallocates
    } else {
      buf_[head_] = r;
      ++stats_.dropped;  // overwrote the oldest surviving record
    }
    head_ = (head_ + 1) & (capacity_ - 1);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::uint32_t mask() const noexcept { return mask_; }
  [[nodiscard]] const SinkStats& stats() const noexcept { return stats_; }

  /// Next message correlation id (1, 2, ...). Ids count per capture, not
  /// per `mp::Runtime`, so they stay distinct when one capture spans many
  /// runtimes (a scheduler cell runs one per job).
  [[nodiscard]] std::uint64_t next_msg_id() noexcept { return ++msg_seq_; }

  /// Surviving records in emit order (oldest first).
  [[nodiscard]] std::vector<Record> snapshot() const {
    std::vector<Record> out;
    out.reserve(buf_.size());
    const std::size_t start = (head_ + capacity_ - buf_.size()) & (capacity_ - 1);
    for (std::size_t i = 0; i < buf_.size(); ++i) {
      out.push_back(buf_[(start + i) & (capacity_ - 1)]);
    }
    return out;
  }

  /// Forget everything but keep capacity and mask (capture reuse).
  void clear() noexcept {
    buf_.clear();
    head_ = 0;
    stats_ = {};
    msg_seq_ = 0;
  }

 private:
  std::vector<Record> buf_;    // the ring's live records, at most capacity_
  std::size_t capacity_{1};    // ring slots, a power of two
  std::size_t head_{0};        // next write slot
  std::uint32_t mask_;
  SinkStats stats_{};
  std::uint64_t msg_seq_{0};  // last message id handed out
};

namespace detail {
inline thread_local Sink* tl_sink = nullptr;
}  // namespace detail

/// The sink currently capturing on this thread (nullptr: tracing runtime-
/// disabled). This is the cached flag the probes branch on.
[[nodiscard]] inline Sink* current() noexcept { return detail::tl_sink; }
[[nodiscard]] inline bool active() noexcept { return detail::tl_sink != nullptr; }

/// Store `r` into the current sink, if any.
inline void emit(const Record& r) noexcept {
  if (Sink* s = detail::tl_sink) s->emit(r);
}

/// RAII capture installer; restores the previous sink (captures nest).
class ScopedCapture {
 public:
  explicit ScopedCapture(Sink& sink) noexcept : prev_(detail::tl_sink) {
    detail::tl_sink = &sink;
  }
  ~ScopedCapture() { detail::tl_sink = prev_; }
  ScopedCapture(const ScopedCapture&) = delete;
  ScopedCapture& operator=(const ScopedCapture&) = delete;

 private:
  Sink* prev_;
};

}  // namespace pdc::trace
