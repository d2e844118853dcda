#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace pdc::sim {

void EventQueue::push_out_of_order(TimePoint at, Event ev) {
  ++stats_.heap_pushes;
  heap_.push_back(Entry{at, next_seq_++, std::move(ev)});
  sift_up(heap_.size() - 1);
}

TimePoint EventQueue::next_time() const noexcept {
  // Start from whichever O(1) lane has something, then let the others beat it.
  TimePoint best{};
  std::uint64_t best_seq = 0;
  bool any = false;
  if (!lane_empty()) {
    best = lane_time_;
    best_seq = lane_[lane_head_].seq;
    any = true;
  }
  if (!run_empty()) {
    const Entry& r = run_[run_head_];
    if (!any || before(r.at, r.seq, best, best_seq)) {
      best = r.at;
      best_seq = r.seq;
      any = true;
    }
  }
  if (!heap_.empty()) {
    const Entry& h = heap_.front();
    if (!any || before(h.at, h.seq, best, best_seq)) best = h.at;
  }
  return best;
}

Event EventQueue::pop() {
  // Identify the (time, seq)-minimal front among the three lanes.
  int src = -1;  // 0 = lane, 1 = run, 2 = heap
  TimePoint best{};
  std::uint64_t best_seq = 0;
  if (!lane_empty()) {
    src = 0;
    best = lane_time_;
    best_seq = lane_[lane_head_].seq;
  }
  if (!run_empty()) {
    const Entry& r = run_[run_head_];
    if (src < 0 || before(r.at, r.seq, best, best_seq)) {
      src = 1;
      best = r.at;
      best_seq = r.seq;
    }
  }
  if (!heap_.empty()) {
    const Entry& h = heap_.front();
    if (src < 0 || before(h.at, h.seq, best, best_seq)) src = 2;
  }
  if (src == 0) {
    Event ev = std::move(lane_[lane_head_++].ev);
    if (lane_head_ >= kCompactMin && lane_head_ * 2 >= lane_.size()) compact_lane();
    return ev;
  }
  if (src == 1) return pop_run_front();
  return pop_heap_top();
}

void EventQueue::compact_lane() {
  lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
}

void EventQueue::compact_run() {
  run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
  run_head_ = 0;
}

Event EventQueue::pop_run_front() {
  Event ev = std::move(run_[run_head_++].ev);
  if (run_head_ >= kCompactMin && run_head_ * 2 >= run_.size()) compact_run();
  return ev;
}

Event EventQueue::pop_heap_top() {
  Event ev = std::move(heap_.front().ev);
  if (heap_.size() > 1) {
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    sift_down(0);
  } else {
    heap_.pop_back();
  }
  return ev;
}

void EventQueue::sift_up(std::size_t i) {
  if (i == 0) return;
  Entry e = std::move(heap_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e.at, e.seq, heap_[parent].at, heap_[parent].seq)) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(e);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Entry e = std::move(heap_[i]);
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c].at, heap_[c].seq, heap_[best].at, heap_[best].seq)) best = c;
    }
    if (!before(heap_[best].at, heap_[best].seq, e.at, e.seq)) break;
    heap_[i] = std::move(heap_[best]);
    i = best;
  }
  heap_[i] = std::move(e);
}

void EventQueue::clear() {
  heap_.clear();
  run_.clear();
  lane_.clear();
  run_head_ = 0;
  lane_head_ = 0;
  next_seq_ = 0;
  stats_ = {};
}

}  // namespace pdc::sim
