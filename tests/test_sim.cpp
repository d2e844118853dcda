// Unit tests for the simulation kernel: time arithmetic, event ordering,
// coroutine tasks, delays, mailboxes, resources, locks, RNG and stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/frame_pool.hpp"
#include "sim/mailbox.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace pdc::sim {
namespace {

TEST(Time, ArithmeticAndComparison) {
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(seconds(1) + milliseconds(500), milliseconds(1500));
  EXPECT_LT(microseconds(999), milliseconds(1));
  EXPECT_EQ((TimePoint::origin() + seconds(2)) - seconds(1), TimePoint{1'000'000'000});
  EXPECT_DOUBLE_EQ(milliseconds(250).seconds(), 0.25);
  EXPECT_DOUBLE_EQ(from_seconds(1.5).millis(), 1500.0);
  EXPECT_EQ(from_seconds(-0.5), milliseconds(-500));
  EXPECT_EQ(3 * milliseconds(2), milliseconds(6));
  EXPECT_EQ(milliseconds(7) / 2, microseconds(3500));
}

// Fire every pending event through the queue's one pop, in (time, seq)
// order.
void drain(EventQueue& q) {
  TimePoint at{};
  Event ev;
  while (q.pop_next(TimePoint{std::numeric_limits<std::int64_t>::max()}, at, ev)) ev();
}

TEST(EventQueue, OrdersByTimeThenFifo) {
  EventQueue q;
  std::vector<int> order;
  q.push(TimePoint{10}, [&] { order.push_back(1); });
  q.push(TimePoint{5}, [&] { order.push_back(2); });
  q.push(TimePoint{10}, [&] { order.push_back(3); });
  q.push(TimePoint{5}, [&] { order.push_back(4); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3}));
}

TEST(EventQueue, ReversedPushOrderStillSortsByTime) {
  // Descending push times defeat both fast lanes; everything lands in the
  // heap and must still come out time-ordered.
  EventQueue q;
  std::vector<int> order;
  for (int i = 100; i > 0; --i) {
    q.push(TimePoint{i}, [&order, i] { order.push_back(i); });
  }
  drain(q);
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i + 1);
}

TEST(EventQueue, InterleavedPushPopKeepsFifoAmongEqualTimes) {
  // Property test: under an interleaved stream of push / push_now / pop,
  // the pop order must equal ascending (time, push index) no matter which
  // internal lane (FIFO fast lane, sorted run, heap) each push lands in.
  Rng rng(20260806);
  EventQueue q;
  std::vector<std::pair<std::int64_t, int>> model;  // (time.ns, push index)
  std::vector<int> fired;
  int next_id = 0;
  TimePoint now{};
  for (int round = 0; round < 600; ++round) {
    const auto pushes = rng.uniform(0, 3);
    for (std::uint64_t k = 0; k < pushes; ++k) {
      const TimePoint t = now + Duration{static_cast<std::int64_t>(rng.uniform(0, 3))};
      const int id = next_id++;
      Event ev{[&fired, id] { fired.push_back(id); }};
      if (t == now) {
        q.push_now(t, std::move(ev));  // contract: t is the current min time
      } else {
        q.push(t, std::move(ev));
      }
      model.emplace_back(t.ns, id);
    }
    if (!q.empty() && rng.uniform(0, 2) > 0) {
      TimePoint at{};
      Event ev;
      ASSERT_TRUE(q.pop_next(TimePoint{1'000'000}, at, ev));
      EXPECT_GE(at, now);
      now = at;
      ev();
    }
  }
  drain(q);
  // Reference order: stable sort by time preserves push order among ties.
  std::stable_sort(model.begin(), model.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(fired.size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) EXPECT_EQ(fired[i], model[i].second);
}

TEST(EventQueue, ClearResetsSequenceCounter) {
  // After clear(), a rebuilt queue must reproduce the exact (time, seq)
  // ordering of a fresh one -- same-time FIFO must not be perturbed by
  // sequence numbers left over from before the clear.
  const auto fill_and_drain = [](EventQueue& q) {
    std::vector<int> order;
    q.push(TimePoint{7}, [&] { order.push_back(0); });
    q.push_now(TimePoint{3}, [&] { order.push_back(1); });
    q.push(TimePoint{3}, [&] { order.push_back(2); });
    q.push(TimePoint{1}, [&] { order.push_back(3); });
    drain(q);
    return order;
  };
  EventQueue fresh;
  const auto expected = fill_and_drain(fresh);

  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(TimePoint{i}, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(fill_and_drain(q), expected);
}

TEST(Event, InlineAndHeapCallablesBothRunAfterMove) {
  // Small capture: stays in the inline buffer. Large capture: heap slow
  // path. Both must survive the queue's internal moves.
  int small_hits = 0;
  Event small{[&small_hits] { ++small_hits; }};
  Event moved_small{std::move(small)};
  moved_small();
  EXPECT_EQ(small_hits, 1);

  std::array<char, 128> big_payload{};
  big_payload[0] = 42;
  int big_hit = 0;
  Event big{[big_payload, &big_hit] { big_hit = big_payload[0]; }};
  Event moved_big{std::move(big)};
  Event moved_again;
  moved_again = std::move(moved_big);
  moved_again();
  EXPECT_EQ(big_hit, 42);
}

TEST(FramePool, RecyclesFixedSizeBlocks) {
  auto& pool = FramePool::local();
  pool.trim();
  pool.reset_stats();

  void* a = pool.allocate(200);  // 256-byte class
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.deallocate(a, 200);
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.cached_blocks(), 1u);

  // Anything in the same class reuses the cached block.
  void* b = pool.allocate(129);
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_GT(pool.stats().hit_rate(), 0.0);
  pool.deallocate(b, 129);
  pool.trim();
  EXPECT_EQ(pool.cached_blocks(), 0u);
}

TEST(FramePool, OversizeBlocksFallThroughToHeap) {
  auto& pool = FramePool::local();
  pool.trim();
  pool.reset_stats();
  void* p = pool.allocate(1 << 20);  // above the largest class
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.deallocate(p, 1 << 20);
  EXPECT_EQ(pool.cached_blocks(), 0u);  // never cached
  EXPECT_EQ(pool.stats().discards, 1u);
}

TEST(Event, FullInlineBudgetCaptureNeverTouchesTheFramePool) {
  // A non-trivially-copyable capture that fills the whole 16-byte budget (a
  // lone shared_ptr) stays inline: built, relocated, fired and destroyed
  // without a FramePool block.
  auto shared = std::make_shared<int>(7);
  auto fn = [shared] { ++*shared; };
  static_assert(sizeof(fn) == Event::kInlineBytes);
  static_assert(!std::is_trivially_copyable_v<decltype(fn)>);

  auto& pool = FramePool::local();
  pool.trim();
  pool.reset_stats();
  {
    Event e{std::move(fn)};
    Event moved{std::move(e)};
    moved();
  }
  EXPECT_EQ(*shared, 8);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 0u);
  EXPECT_EQ(pool.stats().releases, 0u);
  EXPECT_EQ(shared.use_count(), 1);  // the inline copy was destroyed
}

TEST(Task, CoroutineFramesRecycleThroughTheFramePool) {
  auto& pool = FramePool::local();
  Simulation simu;
  auto child = []() -> Task<int> { co_return 21; };
  auto parent = [&child](int& out) -> Task<void> {
    const int a = co_await child();  // child frame dies with this statement
    const int b = co_await child();  // ...and this frame reuses its block
    out = a + b;
  };
  int out = 0;
  pool.trim();
  pool.reset_stats();
  simu.spawn(parent(out));
  simu.run();
  EXPECT_EQ(out, 42);
  EXPECT_GE(pool.stats().releases, 2u);
  EXPECT_GE(pool.stats().hits, 1u);
  pool.trim();
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  TimePoint seen{};
  sim.spawn([](Simulation& s, TimePoint& out) -> Task<> {
    co_await s.delay(milliseconds(5));
    co_await s.delay(microseconds(250));
    out = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, TimePoint::origin() + microseconds(5250));
}

TEST(Simulation, NegativeDelayThrows) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<> {
    co_await s.delay(milliseconds(-1));
  }(sim));
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Simulation, SpawnedProcessesInterleaveDeterministically) {
  Simulation sim;
  std::vector<std::string> log;
  auto proc = [](Simulation& s, std::vector<std::string>& log, std::string name,
                 Duration step) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(step);
      log.push_back(name + std::to_string(i));
    }
  };
  sim.spawn(proc(sim, log, "a", milliseconds(2)));
  sim.spawn(proc(sim, log, "b", milliseconds(3)));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Simulation, NestedTasksPropagateValuesAndExceptions) {
  Simulation sim;
  int result = 0;
  auto leaf = [](Simulation& s) -> Task<int> {
    co_await s.delay(milliseconds(1));
    co_return 42;
  };
  sim.spawn([](Simulation& s, auto& leaf, int& out) -> Task<> {
    out = co_await leaf(s);
  }(sim, leaf, result));
  sim.run();
  EXPECT_EQ(result, 42);

  Simulation sim2;
  auto thrower = [](Simulation& s) -> Task<int> {
    co_await s.delay(milliseconds(1));
    throw std::runtime_error("leaf failed");
  };
  bool caught = false;
  sim2.spawn([](Simulation& s, auto& thrower, bool& caught) -> Task<> {
    try {
      (void)co_await thrower(s);
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(sim2, thrower, caught));
  sim2.run();
  EXPECT_TRUE(caught);
}

TEST(Simulation, RootProcessExceptionSurfacesFromRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<> {
    co_await s.delay(milliseconds(1));
    throw std::logic_error("root failed");
  }(sim), "failing");
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, DeadlockIsDetected) {
  Simulation sim;
  auto box = std::make_unique<Mailbox<int>>(sim);
  sim.spawn([](Mailbox<int>& b) -> Task<> {
    (void)co_await b.recv();  // nobody ever sends
  }(*box), "starved");
  EXPECT_THROW(sim.run(), DeadlockDetected);
}

TEST(Simulation, EventBudgetGuardsRunaways) {
  Simulation sim;
  sim.set_event_budget(100);
  sim.spawn([](Simulation& s) -> Task<> {
    for (;;) co_await s.delay(microseconds(1));
  }(sim));
  EXPECT_THROW(sim.run(), EventBudgetExceeded);
}

TEST(Mailbox, FifoAndMatcherSelection) {
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  sim.spawn([](Simulation& s, Mailbox<int>& b, std::vector<int>& got) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push(7);
    b.push(8);
    b.push(9);
    (void)got;
    co_return;
  }(sim, box, got), "producer");
  sim.spawn([](Mailbox<int>& b, std::vector<int>& got) -> Task<> {
    got.push_back(co_await b.recv([](const int& v) { return v % 2 == 1; }));
    got.push_back(co_await b.recv([](const int& v) { return v % 2 == 1; }));
    got.push_back(co_await b.recv());
  }(box, got), "consumer");
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{7, 9, 8}));
}

TEST(Mailbox, WaiterWokenOnPush) {
  Simulation sim;
  Mailbox<int> box(sim);
  TimePoint when{};
  sim.spawn([](Simulation& s, Mailbox<int>& b, TimePoint& when) -> Task<> {
    const int v = co_await b.recv();
    EXPECT_EQ(v, 5);
    when = s.now();
  }(sim, box, when));
  sim.spawn([](Simulation& s, Mailbox<int>& b) -> Task<> {
    co_await s.delay(milliseconds(3));
    b.push(5);
  }(sim, box));
  sim.run();
  EXPECT_EQ(when, TimePoint::origin() + milliseconds(3));
}

TEST(Mailbox, TryRecvIsNonBlocking) {
  Simulation sim;
  Mailbox<int> box(sim);
  EXPECT_EQ(box.try_recv(), std::nullopt);
  box.push(3);
  EXPECT_EQ(box.try_recv([](const int& v) { return v > 5; }), std::nullopt);
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_EQ(box.try_recv().value(), 3);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(SerialResource, BusyUntilQueueing) {
  Simulation sim;
  SerialResource res(sim);
  EXPECT_EQ(res.reserve(milliseconds(10)), TimePoint::origin() + milliseconds(10));
  EXPECT_EQ(res.reserve(milliseconds(5)), TimePoint::origin() + milliseconds(15));
  EXPECT_EQ(res.busy_time(), milliseconds(15));
  EXPECT_EQ(res.requests(), 2u);
}

TEST(SerialResource, ReserveFromFutureStart) {
  Simulation sim;
  SerialResource res(sim);
  // Idle resource, window starting in the future.
  EXPECT_EQ(res.reserve_from(TimePoint{1000}, Duration{500}), TimePoint{1500});
  // Busy resource dominates the future start.
  EXPECT_EQ(res.reserve_from(TimePoint{1200}, Duration{100}), TimePoint{1600});
  EXPECT_THROW(res.reserve(Duration{-1}), std::invalid_argument);
}

TEST(Rng, DeterministicAndSplittable) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c = a.split();
  EXPECT_NE(a.next_u64(), c.next_u64());
  Rng d(42);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const auto v = d.uniform(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, UniformCoversRangeRoughly) {
  Rng r(7);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[static_cast<std::size_t>(r.uniform(0, 9))];
  for (int h : hits) EXPECT_GT(h, 800);
}

// ---------- satellite: mailbox edge cases -----------------------------------

/// A miniature message envelope for wildcard-matching tests: the same shape
/// the mp layer matches on (source, tag), small enough for MatchPred's
/// inline context.
struct Envelope {
  int src;
  int tag;
  int body;
};

/// Wildcard matcher: -1 matches any source / any tag (PVM pvm_recv(-1, -1),
/// p4 type -1 semantics).
struct WildcardMatch {
  int src;
  int tag;
  bool operator()(const Envelope& e) const {
    return (src < 0 || e.src == src) && (tag < 0 || e.tag == tag);
  }
};

TEST(MailboxEdge, WildcardSourceAndTagMatching) {
  Simulation sim;
  Mailbox<Envelope> box(sim);
  std::vector<int> got;
  sim.spawn([](Simulation& s, Mailbox<Envelope>& b) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push({.src = 2, .tag = 9, .body = 1});
    b.push({.src = 3, .tag = 5, .body = 2});
    b.push({.src = 2, .tag = 5, .body = 3});
  }(sim, box), "producer");
  sim.spawn([](Mailbox<Envelope>& b, std::vector<int>& got) -> Task<> {
    // Exact (src, tag) skips earlier queued items.
    got.push_back((co_await b.recv(WildcardMatch{2, 5})).body);
    // Wildcard source, exact tag: oldest tag-5 item remaining.
    got.push_back((co_await b.recv(WildcardMatch{-1, 5})).body);
    // Full wildcard drains in arrival order.
    got.push_back((co_await b.recv(WildcardMatch{-1, -1})).body);
  }(box, got), "consumer");
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{3, 2, 1}));
}

TEST(MailboxEdge, SameTimestampPushesKeepFifoOrder) {
  // Multiple pushes at one simulated instant must drain in push order, and
  // a same-instant producer/consumer interleaving must not reorder: the
  // fast-lane event queue is FIFO within a timestamp.
  Simulation sim;
  Mailbox<int> box(sim);
  std::vector<int> got;
  sim.spawn([](Simulation& s, Mailbox<int>& b) -> Task<> {
    co_await s.delay(milliseconds(2));
    for (int i = 0; i < 6; ++i) b.push(i);  // all at t = 2 ms
  }(sim, box), "producer");
  sim.spawn([](Mailbox<int>& b, std::vector<int>& got) -> Task<> {
    for (int i = 0; i < 6; ++i) got.push_back(co_await b.recv());
  }(box, got), "consumer");
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(MailboxEdge, CompetingReceiversServedInArrivalOrder) {
  // Two waiters with overlapping predicates: a push wakes the waiter that
  // arrived first among those whose matcher accepts, so a selective waiter
  // is not starved by a wildcard one that arrived later.
  Simulation sim;
  Mailbox<Envelope> box(sim);
  std::vector<std::pair<char, int>> got;
  sim.spawn([](Mailbox<Envelope>& b, std::vector<std::pair<char, int>>& got) -> Task<> {
    got.emplace_back('s', (co_await b.recv(WildcardMatch{-1, 7})).body);  // selective, first
  }(box, got), "selective");
  sim.spawn([](Simulation& s, Mailbox<Envelope>& b, std::vector<std::pair<char, int>>& got)
                -> Task<> {
    co_await s.delay(microseconds(1));
    got.emplace_back('w', (co_await b.recv(WildcardMatch{-1, -1})).body);  // wildcard, second
  }(sim, box, got), "wildcard");
  sim.spawn([](Simulation& s, Mailbox<Envelope>& b) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push({.src = 0, .tag = 7, .body = 10});  // both match; selective waiter wins (older)
    b.push({.src = 0, .tag = 3, .body = 20});  // only the wildcard waiter matches
  }(sim, box), "producer");
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair('s', 10));
  EXPECT_EQ(got[1], std::make_pair('w', 20));
}

TEST(MailboxEdge, NonMatchingPushQueuesPastBlockedWaiter) {
  // A waiter whose matcher rejects an item must leave it queued for later
  // receivers instead of consuming or dropping it.
  Simulation sim;
  Mailbox<Envelope> box(sim);
  int selective = 0, sweeper = 0;
  sim.spawn([](Mailbox<Envelope>& b, int& selective) -> Task<> {
    selective = (co_await b.recv(WildcardMatch{5, -1})).body;
  }(box, selective), "selective");
  sim.spawn([](Simulation& s, Mailbox<Envelope>& b, int& sweeper) -> Task<> {
    co_await s.delay(milliseconds(2));
    sweeper = (co_await b.recv()).body;
  }(sim, box, sweeper), "sweeper");
  sim.spawn([](Simulation& s, Mailbox<Envelope>& b) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push({.src = 1, .tag = 0, .body = 111});  // rejected by the selective waiter
    b.push({.src = 5, .tag = 0, .body = 555});
  }(sim, box), "producer");
  sim.run();
  EXPECT_EQ(selective, 555);
  EXPECT_EQ(sweeper, 111);
}

// ---------- timers: schedule_at events ------------------------------------
//
// A timer is a schedule_at event; the reliable transport's retransmission
// timer is one, cancelled by a generation count the event checks when it
// pops. The trace subsystem records events in dispatch order, so dispatch
// order at equal timestamps must itself be pinned: the queue breaks time
// ties by FIFO sequence number, independent of heap internals.

TEST(Timer, CancelSuppressesCallbackButHoldsClock) {
  Simulation sim;
  std::uint64_t generation = 0;
  bool fired = false;
  sim.schedule_at(TimePoint::origin() + milliseconds(10), [&generation, &fired, want = generation] {
    if (generation == want) fired = true;
  });
  sim.spawn([](Simulation& s, std::uint64_t& generation) -> Task<> {
    co_await s.delay(milliseconds(1));
    ++generation;  // cancel
  }(sim, generation));
  // The cancelled event is a no-op but still pops, so the run ends at the
  // timer's original deadline.
  EXPECT_EQ(sim.run(), TimePoint::origin() + milliseconds(10));
  EXPECT_FALSE(fired);
}

TEST(Timer, SameDeadlineTimersFireInArmOrder) {
  Simulation sim;
  std::vector<int> fired;
  const TimePoint deadline = TimePoint::origin() + milliseconds(2);
  sim.schedule_at(deadline, [&fired] { fired.push_back(1); });
  sim.schedule_at(deadline, [&fired] { fired.push_back(2); });
  sim.schedule_at(deadline, [&fired] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(Timer, SameDeadlineMixOfTimersAndDelaysKeepsScheduleOrder) {
  // A delay resuming and a timer firing at the same instant dispatch in the
  // order they were pushed onto the event queue, not by producer kind.
  Simulation sim;
  std::vector<char> order;
  sim.spawn([](Simulation& s, std::vector<char>& order) -> Task<> {
    co_await s.delay(milliseconds(3));
    order.push_back('d');
  }(sim, order), "delayer");
  sim.schedule_at(TimePoint::origin() + milliseconds(3), [&order] { order.push_back('t'); });
  sim.run();
  // Spawned coroutines start lazily inside run(), so the timer's event was
  // pushed first and FIFO tie-breaking dispatches it first. What matters for
  // trace determinism is that this order is pinned, not which one wins.
  EXPECT_EQ(order, (std::vector<char>{'t', 'd'}));
}

}  // namespace
}  // namespace pdc::sim
