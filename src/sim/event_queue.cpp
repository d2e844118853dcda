#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace pdc::sim {

void EventQueue::push_out_of_order(TimePoint at, Event ev) {
  heap_.push_back(Entry{at, next_seq_++, std::move(ev)});
  sift_up(heap_.size() - 1);
}

void EventQueue::compact_lane() {
  lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
  lane_head_ = 0;
}

void EventQueue::compact_run() {
  run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
  run_head_ = 0;
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
}

}  // namespace pdc::sim
