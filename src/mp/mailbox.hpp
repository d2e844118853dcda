// pdceval -- a rank's mailbox: tagged point-to-point matching.
//
// Every tool's receive is a (source, tag) match with wildcards (p4 types,
// PVM tags, Express types). A receiver takes the oldest queued message that
// matches, or, when none is queued, posts a `Waiter` and gets the first
// matching message pushed later. A push goes to the earliest-posted waiter
// that accepts it, filling its slot and scheduling its wake at the push's
// time; otherwise it queues. `recv(src, tag)` is the plain awaitable over
// that protocol; `Communicator::recv` builds its own awaiter on it.
//
// Queued messages sit in one FIFO per source, each stamped with its arrival
// number. A recv from a named source scans only that source's FIFO, so
// many-to-one traffic at large P costs O(1) scans per match instead of
// O(queue depth). A wildcard-source recv takes, among each FIFO's first tag
// match, the one with the lowest arrival number: the oldest match overall,
// whatever order the map iterates in. A FIFO exists only while it holds
// messages, so a mailbox that queues nothing allocates nothing.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "mp/message.hpp"
#include "sim/simulation.hpp"

namespace pdc::mp {

/// Matching telemetry for one mailbox (or summed over a runtime's
/// mailboxes). `items_scanned / matches` is the cost of a match.
struct MailboxStats {
  std::uint64_t pushes{0};         ///< messages delivered into the mailbox
  std::uint64_t matches{0};        ///< messages taken out of the queue
  std::uint64_t items_scanned{0};  ///< queued messages examined across recvs
  std::uint64_t max_depth{0};      ///< peak queue depth

  /// Sums the counters; peak depth merges as a max (it is a high-water
  /// mark, not a flow). Both operations are order-independent, so summed
  /// stats are identical for any sweep thread count.
  MailboxStats& operator+=(const MailboxStats& o) noexcept {
    pushes += o.pushes;
    matches += o.matches;
    items_scanned += o.items_scanned;
    max_depth = max_depth > o.max_depth ? max_depth : o.max_depth;
    return *this;
  }
  friend bool operator==(const MailboxStats&, const MailboxStats&) = default;
};

class Mailbox {
 public:
  explicit Mailbox(sim::Simulation& sim) : sim_(sim) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// A posted recv. It lives in the receiver's coroutine frame (inside its
  /// awaiter) and is linked into the mailbox's FIFO of waiters, so posting
  /// a recv allocates nothing. The push that matches it fills `slot` and
  /// schedules `wake(*this)`: one event carrying the waiter's pointer.
  struct Waiter {
    int src;
    int tag;
    void (*wake)(Waiter&);
    std::optional<Message> slot{};
    Waiter* next{nullptr};
  };

  /// Deliver a message: to the earliest-posted waiter that matches it
  /// (woken via the scheduler), else into its source's FIFO.
  void push(Message msg) {
    ++stats_.pushes;
    for (Waiter** link = &first_waiter_; *link != nullptr; link = &(*link)->next) {
      Waiter* w = *link;
      if (msg.matches(w->src, w->tag)) {
        *link = w->next;
        if (last_waiter_ == &w->next) last_waiter_ = link;
        w->slot.emplace(std::move(msg));
        sim_.schedule_at(sim_.now(), [w] { w->wake(*w); });
        return;
      }
    }
    Fifo& fifo = by_src_[msg.src];
    fifo.push_back(Queued{next_seq_++, std::move(msg)});
    if (++pending_ > stats_.max_depth) stats_.max_depth = pending_;
  }

  /// Take the oldest queued message matching (src, tag); kAnySource /
  /// kAnyTag are wildcards.
  [[nodiscard]] std::optional<Message> take(int src, int tag) {
    auto hit = by_src_.end();
    std::size_t at = 0;
    if (src != kAnySource) {
      hit = by_src_.find(src);
      if (hit == by_src_.end()) return std::nullopt;
      at = first_match(hit->second, src, tag);
      if (at == hit->second.size()) return std::nullopt;
    } else {
      for (auto it = by_src_.begin(); it != by_src_.end(); ++it) {
        const std::size_t i = first_match(it->second, src, tag);
        if (i < it->second.size() &&
            (hit == by_src_.end() || it->second[i].seq < hit->second[at].seq)) {
          hit = it;
          at = i;
        }
      }
      if (hit == by_src_.end()) return std::nullopt;
    }
    Fifo& fifo = hit->second;
    std::optional<Message> out(std::move(fifo[at].msg));
    fifo.erase(fifo.begin() + static_cast<std::ptrdiff_t>(at));
    if (fifo.empty()) by_src_.erase(hit);
    --pending_;
    ++stats_.matches;
    return out;
  }

  /// Queue `w` behind the waiters already posted. Call it only when
  /// `take(w.src, w.tag)` found nothing.
  void post(Waiter& w) noexcept {
    *last_waiter_ = &w;
    last_waiter_ = &w.next;
  }

  /// Awaitable receive of the oldest message matching (src, tag). Its
  /// `await_ready()` takes an already-queued match, so it doubles as a
  /// non-blocking probe.
  [[nodiscard]] auto recv(int src, int tag) {
    struct Awaiter : Waiter {
      Mailbox& box;
      std::coroutine_handle<> handle;

      static void resume(Waiter& w) { static_cast<Awaiter&>(w).handle.resume(); }
      [[nodiscard]] bool await_ready() {
        slot = box.take(src, tag);
        return slot.has_value();
      }
      void await_suspend(std::coroutine_handle<> h) {
        handle = h;
        box.post(*this);
      }
      Message await_resume() { return std::move(*slot); }
    };
    return Awaiter{{src, tag, &Awaiter::resume}, *this, {}};
  }

  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] const MailboxStats& stats() const noexcept { return stats_; }

 private:
  struct Queued {
    std::uint64_t seq;  ///< arrival number across all sources
    Message msg;
  };
  using Fifo = std::deque<Queued>;

  /// Index of the first message in `fifo` matching (src, tag), or
  /// fifo.size(); counts every message it examines.
  std::size_t first_match(const Fifo& fifo, int src, int tag) {
    std::size_t i = 0;
    for (; i < fifo.size(); ++i) {
      ++stats_.items_scanned;
      if (fifo[i].msg.matches(src, tag)) break;
    }
    return i;
  }

  sim::Simulation& sim_;
  std::unordered_map<int, Fifo> by_src_;
  Waiter* first_waiter_{nullptr};  ///< earliest-posted waiter
  Waiter** last_waiter_{&first_waiter_};
  std::uint64_t next_seq_{0};
  std::size_t pending_{0};
  MailboxStats stats_;
};

}  // namespace pdc::mp
