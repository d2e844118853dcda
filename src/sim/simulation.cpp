#include "sim/simulation.hpp"

#include <string>
#include <utility>

#include "trace/sink.hpp"

namespace pdc::sim {

void Simulation::spawn(Task<> process, std::string name) {
  auto root = std::make_unique<RootProcess>(RootProcess{std::move(process), std::move(name)});
  auto handle = root->task.handle();
  roots_.push_back(std::move(root));
  queue_.push_now(now_, Event{handle});
}

void Simulation::spawn_at(TimePoint at, Task<> process, std::string name) {
  auto root = std::make_unique<RootProcess>(RootProcess{std::move(process), std::move(name)});
  auto handle = root->task.handle();
  roots_.push_back(std::move(root));
  schedule_at(at, Event{handle});
}

TimePoint Simulation::run(TimePoint until) {
  TimePoint at{};
  Event event;
  while (queue_.pop_next(until, at, event)) {
    if (events_processed_ >= event_budget_) {
      // Un-popping would reorder; the budget overrun is fatal anyway.
      throw EventBudgetExceeded("simulation exceeded event budget of " +
                                std::to_string(event_budget_) + " events");
    }
    now_ = at;
    ++events_processed_;
    if (trace::active()) {
      trace::emit({.t_ns = at.ns,
                   .aux0 = static_cast<std::int64_t>(events_processed_),
                   .aux1 = static_cast<std::int64_t>(queue_.size()),
                   .kind = trace::Kind::EventDispatch});
    }
    event();
  }
  // Surface process failures and deadlocks only once the queue has fully
  // drained -- a run() bounded by `until` may legitimately leave processes
  // suspended mid-protocol.
  if (queue_.empty()) {
    for (const auto& root : roots_) root->task.rethrow_if_failed();
    for (const auto& root : roots_) {
      if (!root->task.done()) {
        throw DeadlockDetected("process '" + (root->name.empty() ? "<anonymous>" : root->name) +
                               "' is blocked with no pending events (deadlock)");
      }
    }
  }
  return now_;
}

}  // namespace pdc::sim
