// Tests for the message-passing layer: point-to-point semantics per tool,
// collectives correctness, daemon routing, pack/unpack, the (source, tag)
// mailbox, and the SPMD driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "mp/api.hpp"
#include "mp/buffer_pool.hpp"
#include "mp/communicator.hpp"
#include "mp/mailbox.hpp"
#include "mp/pack.hpp"
#include "test_support.hpp"

namespace pdc::mp {
namespace {

using host::PlatformId;

class ToolFixture : public ::testing::TestWithParam<ToolKind> {};

INSTANTIATE_TEST_SUITE_P(AllTools, ToolFixture,
                         ::testing::Values(ToolKind::P4, ToolKind::Pvm, ToolKind::Express),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(Pack, RoundTripVectors) {
  std::vector<double> v{1.5, -2.25, 1e100};
  auto p = pack_vector(v);
  EXPECT_EQ(unpack_vector<double>(*p), v);

  Packer pk;
  pk.put<std::int32_t>(7);
  pk.put_span<std::int64_t>(std::vector<std::int64_t>{10, 20, 30});
  pk.put<double>(2.5);
  auto payload = pk.finish();
  PayloadReader u(*payload);
  EXPECT_EQ(u.get<std::int32_t>(), 7);
  EXPECT_EQ(u.get_vector<std::int64_t>(), (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_DOUBLE_EQ(u.get<double>(), 2.5);
  EXPECT_EQ(u.remaining(), 0u);
}

TEST(Pack, UnpackerRejectsTruncation) {
  Bytes b(3);
  PayloadReader u(b);
  EXPECT_THROW((void)u.get<std::int64_t>(), std::out_of_range);
  EXPECT_THROW(unpack_vector<double>(b), std::invalid_argument);
}

TEST_P(ToolFixture, PingPongDeliversPayloadIntact) {
  std::vector<std::int32_t> echoed;
  auto program = [&echoed](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      std::vector<std::int32_t> data(1000);
      std::iota(data.begin(), data.end(), 0);
      co_await c.send(1, 17, pack_vector(data));
      Message m = co_await c.recv(1, 18);
      echoed = unpack_vector<std::int32_t>(*m.data);
    } else {
      Message m = co_await c.recv(0, 17);
      co_await c.send(0, 18, m.data);
    }
  };
  auto out = run_spmd(PlatformId::SunEthernet, 2, GetParam(), program);
  ASSERT_EQ(echoed.size(), 1000u);
  EXPECT_EQ(echoed[999], 999);
  EXPECT_GT(out.elapsed, sim::Duration::zero());
  EXPECT_GE(out.messages, 2u);
}

TEST_P(ToolFixture, TagAndSourceMatching) {
  std::vector<int> order;
  auto program = [&order](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 5, empty_payload());
      co_await c.send(1, 6, empty_payload());
    } else if (c.rank() == 2) {
      co_await c.send(1, 5, empty_payload());
    } else {
      // Receive tag 6 first even though tag 5 arrives first.
      Message a = co_await c.recv(kAnySource, 6);
      order.push_back(a.tag);
      Message b = co_await c.recv(2, 5);
      order.push_back(b.src);
      Message d = co_await c.recv(0, kAnyTag);
      order.push_back(d.tag);
    }
  };
  run_spmd(PlatformId::AlphaFddi, 3, GetParam(), program);
  EXPECT_EQ(order, (std::vector<int>{6, 2, 5}));
}

TEST_P(ToolFixture, BroadcastReachesEveryRank) {
  constexpr int kProcs = 7;  // deliberately not a power of two
  std::vector<std::vector<std::int32_t>> got(kProcs);
  auto program = [&got](Communicator& c) -> sim::Task<void> {
    Bytes data;
    if (c.rank() == 2) {
      std::vector<std::int32_t> v{1, 2, 3, 4, 5};
      data = *pack_vector(v);
    }
    co_await c.broadcast(2, data, 99);
    got[static_cast<std::size_t>(c.rank())] = unpack_vector<std::int32_t>(data);
  };
  run_spmd(PlatformId::AlphaFddi, kProcs, GetParam(), program);
  for (const auto& v : got) EXPECT_EQ(v, (std::vector<std::int32_t>{1, 2, 3, 4, 5}));
}

TEST_P(ToolFixture, SelfSendLoopsBack) {
  bool ok = false;
  auto program = [&ok](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      std::vector<double> v{3.25};
      co_await c.send(0, 1, pack_vector(v));
      Message m = co_await c.recv(0, 1);
      ok = unpack_vector<double>(*m.data)[0] == 3.25;
    }
    co_return;
  };
  run_spmd(PlatformId::SunEthernet, 2, GetParam(), program);
  EXPECT_TRUE(ok);
}

TEST(GlobalSum, P4AndExpressComputeExactSums) {
  for (ToolKind kind : {ToolKind::P4, ToolKind::Express}) {
    for (int procs : {2, 3, 4, 7, 8}) {
      std::vector<std::vector<double>> results(static_cast<std::size_t>(procs));
      auto program = [&results, procs](Communicator& c) -> sim::Task<void> {
        std::vector<double> v(16);
        for (std::size_t i = 0; i < v.size(); ++i) {
          v[i] = static_cast<double>(c.rank() + 1) * static_cast<double>(i);
        }
        co_await c.global_sum(v);
        results[static_cast<std::size_t>(c.rank())] = v;
        (void)procs;
      };
      run_spmd(PlatformId::AlphaFddi, procs, kind, program);
      const double rank_sum = procs * (procs + 1) / 2.0;
      for (const auto& v : results) {
        ASSERT_EQ(v.size(), 16u);
        for (std::size_t i = 0; i < v.size(); ++i) {
          EXPECT_DOUBLE_EQ(v[i], rank_sum * static_cast<double>(i))
              << to_string(kind) << " procs=" << procs << " i=" << i;
        }
      }
    }
  }
}

TEST(GlobalSum, IntVectorsSupported) {
  std::vector<std::int32_t> result;
  auto program = [&result](Communicator& c) -> sim::Task<void> {
    std::vector<std::int32_t> v{1, 2, 3};
    co_await c.global_sum(v);
    if (c.rank() == 0) result = v;
  };
  run_spmd(PlatformId::SunEthernet, 4, ToolKind::P4, program);
  EXPECT_EQ(result, (std::vector<std::int32_t>{4, 8, 12}));
}

TEST(GlobalSum, PvmLacksGlobalOps) {
  // As in the paper: "PVM does not support any global operation".
  auto program = [](Communicator& c) -> sim::Task<void> {
    std::vector<double> v{1.0};
    co_await c.global_sum(v);
  };
  EXPECT_THROW(run_spmd(PlatformId::SunEthernet, 2, ToolKind::Pvm, program), ToolUnsupported);
}

TEST(Semantics, PvmSendIsAsynchronousP4Blocks) {
  // Measure the sender-side cost of one 64 KB send with no receiver
  // processing: PVM's fire-and-forget returns well before p4's blocking
  // send on the same platform.
  auto sender_cost = [](ToolKind kind) {
    sim::Duration cost{};
    auto program = [&cost](Communicator& c) -> sim::Task<void> {
      if (c.rank() == 0) {
        Bytes big(65536);
        const auto t0 = c.sim().now();
        co_await c.send(1, 1, make_payload(std::move(big)));
        cost = c.sim().now() - t0;
      } else {
        (void)co_await c.recv(0, 1);
      }
    };
    run_spmd(PlatformId::SunEthernet, 2, kind, program);
    return cost;
  };
  EXPECT_LT(sender_cost(ToolKind::Pvm), sender_cost(ToolKind::P4));
}

TEST(Semantics, DaemonRoutingUsedOnlyByPvm) {
  auto daemon_requests = [](ToolKind kind) {
    sim::Simulation simulation;
    host::Cluster cluster(simulation, PlatformId::SunEthernet, 2);
    Runtime rt(cluster, kind);
    auto program = [](Communicator& c) -> sim::Task<void> {
      if (c.rank() == 0) {
        co_await c.send(1, 1, make_payload(Bytes(100)));
      } else {
        (void)co_await c.recv(0, 1);
      }
    };
    for (int r = 0; r < 2; ++r) simulation.spawn(program(rt.comm(r)));
    simulation.run();
    return rt.daemon(0).requests() + rt.daemon(1).requests();
  };
  EXPECT_GT(daemon_requests(ToolKind::Pvm), 0u);
  EXPECT_EQ(daemon_requests(ToolKind::P4), 0u);
  EXPECT_EQ(daemon_requests(ToolKind::Express), 0u);
}

TEST(Semantics, MessagesArriveInOrderBetweenPairs) {
  std::vector<int> seen;
  auto program = [&seen](Communicator& c) -> sim::Task<void> {
    constexpr int kN = 20;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        std::vector<std::int32_t> v{i};
        co_await c.send(1, 7, pack_vector(v));
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        Message m = co_await c.recv(0, 7);
        seen.push_back(unpack_vector<std::int32_t>(*m.data)[0]);
      }
    }
  };
  for (ToolKind kind : all_tools()) {
    seen.clear();
    run_spmd(PlatformId::SunAtmLan, 2, kind, program);
    ASSERT_EQ(seen.size(), 20u) << to_string(kind);
    for (int i = 0; i < 20; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
}

TEST(Pack, EmptySpanRoundTrips) {
  // Regression: an empty span may have data() == nullptr; put_span must not
  // do pointer arithmetic on it (UB caught by UBSan).
  Packer pk;
  pk.put<std::int32_t>(42);
  pk.put_span<double>(std::span<const double>{});
  pk.put<std::int32_t>(7);
  auto payload = pk.finish();

  PayloadReader r(payload);
  EXPECT_EQ(r.get<std::int32_t>(), 42);
  EXPECT_TRUE(r.get_span<double>().empty());
  EXPECT_EQ(r.get<std::int32_t>(), 7);
  EXPECT_EQ(r.remaining(), 0u);

  // Zero-element pack_vector and payload_span agree on the empty case too.
  auto p2 = pack_vector(std::span<const double>{});
  EXPECT_TRUE(p2->empty());
  EXPECT_TRUE(payload_span<double>(*p2).empty());
}

TEST(Pack, MalformedLengthPrefixRejected) {
  // A corrupted length prefix whose n * sizeof(T) wraps 64-bit arithmetic
  // must not pass the bounds check. 0x2000'0000'0000'0001 * 8 == 8 (mod
  // 2^64), so a naive `pos + n * sizeof(T) > size` check would accept it.
  Packer pk;
  pk.put<std::uint64_t>(0x2000'0000'0000'0001ULL);
  pk.put<double>(1.0);
  auto payload = pk.finish();

  PayloadReader u(*payload);
  EXPECT_THROW((void)u.get_vector<double>(), std::out_of_range);
  PayloadReader r(payload);
  EXPECT_THROW((void)r.get_span<double>(), std::out_of_range);
  PayloadReader r2(payload);
  EXPECT_THROW((void)r2.get_vector<double>(), std::out_of_range);
}

TEST(Pack, PayloadReaderBorrowsWithoutCopying) {
  std::vector<double> data{1.0, 2.0, 3.0, 4.0};
  Packer pk;
  pk.put<std::uint64_t>(99);  // 8-byte header keeps the span 8-aligned
  pk.put_span<double>(data);
  auto payload = pk.finish();

  PayloadReader r(payload);
  EXPECT_EQ(r.get<std::uint64_t>(), 99u);
  const auto s = r.get_span<double>();
  ASSERT_EQ(s.size(), data.size());
  EXPECT_TRUE(std::equal(s.begin(), s.end(), data.begin()));
  // Genuinely zero-copy: the span points into the payload's own bytes.
  EXPECT_EQ(reinterpret_cast<const std::byte*>(s.data()),
            payload->data() + sizeof(std::uint64_t) + sizeof(std::uint64_t));
  // The reader shares ownership: spans stay valid after the caller's
  // reference goes away.
  payload.reset();
  EXPECT_DOUBLE_EQ(s[3], 4.0);
}

TEST(Pack, PayloadReaderRejectsMisalignedSpan) {
  // A 4-byte header leaves the doubles at offset 12 -- misaligned. The
  // zero-copy reader must refuse rather than hand out a UB span.
  Packer pk;
  pk.put<std::int32_t>(1);
  pk.put_span<double>(std::vector<double>{1.0, 2.0});
  auto payload = pk.finish();

  PayloadReader r(payload);
  EXPECT_EQ(r.get<std::int32_t>(), 1);
  EXPECT_THROW((void)r.get_span<double>(), std::runtime_error);
}

TEST(BufferPool, RecyclesAcrossAcquireReleaseCycles) {
  auto& pool = BufferPool::local();
  pool.trim();
  pool.reset_stats();

  Bytes b = pool.acquire(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(pool.stats().misses, 1u);
  const auto cap = b.capacity();
  EXPECT_GE(cap, 1024u);  // rounded up to the size class
  pool.release(std::move(b));
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.cached_buffers(), 1u);

  // Same class comes back from the free list, not the heap.
  Bytes c = pool.acquire(600);
  EXPECT_EQ(c.size(), 600u);
  EXPECT_EQ(c.capacity(), cap);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_GT(pool.stats().bytes_recycled, 0u);
  EXPECT_GT(pool.stats().hit_rate(), 0.0);
  pool.release(std::move(c));
  pool.trim();
  EXPECT_EQ(pool.cached_buffers(), 0u);
}

TEST(BufferPool, DroppedPayloadsReturnTheirBuffers) {
  auto& pool = BufferPool::local();
  pool.trim();
  pool.reset_stats();
  {
    auto p = pack_vector(std::vector<double>(256, 1.0));
    EXPECT_EQ(pool.stats().releases, 0u);
  }
  // Payload death routed the 2 KiB buffer back into the pool.
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.cached_buffers(), 1u);
  pool.trim();
}

TEST(Broadcast, PayloadOverloadSharesOneBufferTreeWide) {
  constexpr int kRanks = 4;
  std::array<const Bytes*, kRanks> seen{};
  std::array<std::vector<double>, kRanks> values;
  auto program = [&](Communicator& c) -> sim::Task<void> {
    Payload pay;
    if (c.rank() == 0) pay = pack_vector(std::vector<double>{3.5, -1.25});
    co_await c.broadcast(0, pay, 5);
    seen[static_cast<std::size_t>(c.rank())] = pay.get();
    const auto s = payload_span<double>(*pay);
    values[static_cast<std::size_t>(c.rank())].assign(s.begin(), s.end());
  };
  run_spmd(PlatformId::Sp1Switch, kRanks, ToolKind::Express, program);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(values[static_cast<std::size_t>(r)], (std::vector<double>{3.5, -1.25}));
    // Zero-copy: every rank holds the SAME buffer, not a per-hop clone.
    EXPECT_EQ(seen[static_cast<std::size_t>(r)], seen[0]);
  }
}

TEST(Broadcast, BytesOverloadStillMaterialisesPerRank) {
  std::array<std::vector<double>, 3> got;
  auto program = [&got](Communicator& c) -> sim::Task<void> {
    Bytes b;
    if (c.rank() == 0) b = *pack_vector(std::vector<double>{7.0, 8.0});
    co_await c.broadcast(0, b, 5);
    got[static_cast<std::size_t>(c.rank())] = unpack_vector<double>(b);
  };
  run_spmd(PlatformId::SunEthernet, 3, ToolKind::P4, program);
  for (const auto& v : got) EXPECT_EQ(v, (std::vector<double>{7.0, 8.0}));
}

TEST(RunSpmd, ReportsCountersAndValidatesArgs) {
  auto program = [](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) co_await c.send(1, 1, make_payload(Bytes(256)));
    if (c.rank() == 1) (void)co_await c.recv();
    co_return;
  };
  auto out = run_spmd(PlatformId::Sp1Switch, 2, ToolKind::P4, program);
  EXPECT_EQ(out.messages, 1u);
  EXPECT_EQ(out.payload_bytes, 256u);
  EXPECT_GT(out.events, 0u);

  auto bad = [](Communicator& c) -> sim::Task<void> {
    co_await c.send(99, 1, empty_payload());
  };
  EXPECT_THROW(run_spmd(PlatformId::Sp1Switch, 2, ToolKind::P4, bad), std::out_of_range);
}

// ---------- one parcel per message ------------------------------------------

/// 200 messages: rank 0 sends `held` 100 times and rank 1 echoes each back.
/// Rank 0 counts the heap allocations of the last 99 round trips (198
/// messages) into `allocs`; the first round trip creates the fabric's lazy
/// state (mailboxes, parcel slab, link tables).
RankProgram ping_pong_program(const Payload& held, unsigned long long& allocs) {
  return [held, &allocs](Communicator& c) -> sim::Task<void> {
    unsigned long long start = 0;
    for (int i = 0; i < 100; ++i) {
      if (c.rank() == 0) {
        if (i == 1) start = test::heap_allocs();
        co_await c.send(1, 3, held);
        (void)co_await c.recv(1, 4);
      } else {
        Message m = co_await c.recv(0, 3);
        co_await c.send(0, 4, std::move(m.data));
      }
    }
    if (c.rank() == 0) allocs = test::heap_allocs() - start;
  };
}

/// Heap allocations per message of the ping-pong's steady state.
double ping_pong_allocs_per_message(ToolKind tool, const fault::FaultPlan& faults,
                                    const Payload& held) {
  unsigned long long allocs = ~0ULL;
  const auto out =
      run_spmd(PlatformId::SunEthernet, 2, tool, ping_pong_program(held, allocs), faults);
  EXPECT_EQ(out.messages, 200u);
  if (faults.enabled()) {
    EXPECT_GT(out.transport.retransmits, 0) << to_string(tool);
  }
  return static_cast<double>(allocs) / 198.0;
}

TEST(Parcel, PingPongAllocatesNothingPerMessage) {
  // send and recv are awaiters and every event on a message's path (engine
  // and daemon hops, wire, stacks, handoff, delivery, the mailbox wake, the
  // sender's resume) fits the event's inline budget, so once the fabric
  // exists a message costs no heap allocation at all.
  const Payload held = make_payload(Bytes(1024, std::byte{0x5A}));
  for (const ToolKind tool : {ToolKind::P4, ToolKind::Express, ToolKind::Pvm}) {
    EXPECT_EQ(ping_pong_allocs_per_message(tool, fault::FaultPlan{}, held), 0.0)
        << to_string(tool);
  }
  EXPECT_EQ(held.use_count(), 1);
}

TEST(Parcel, FaultyPingPongAllocatesAlmostNothingPerMessage) {
  // On a faulty wire the reliable transport's frames, timers and acks fit
  // the inline budget too, and an in-order data frame goes straight to the
  // receiver. What allocates is the rare out-of-order frame's node in the
  // reorder buffer and the event queue's storage growing as retransmission
  // timers pile up: 3 or 4 allocations over the 198 messages.
  const Payload held = make_payload(Bytes(1024, std::byte{0x5A}));
  for (const ToolKind tool : {ToolKind::P4, ToolKind::Express, ToolKind::Pvm}) {
    EXPECT_LE(ping_pong_allocs_per_message(tool, fault::FaultPlan::uniform(0.05), held), 0.03)
        << to_string(tool);
  }
  EXPECT_EQ(held.use_count(), 1);
}

TEST(Parcel, BudgetTripReleasesInFlightPayloads) {
  const Payload held = make_payload(Bytes(4096, std::byte{1}));
  {
    sim::Simulation simulation;
    host::Cluster cluster(simulation, PlatformId::SunEthernet, 8);
    Runtime runtime(cluster, ToolKind::Pvm);
    auto ring = [&held](Communicator& c) -> sim::Task<void> {
      for (int r = 0; r < 10; ++r) {
        co_await c.send((c.rank() + 1) % c.size(), r, held);
        (void)co_await c.recv((c.rank() + c.size() - 1) % c.size(), r);
      }
    };
    for (int r = 0; r < 8; ++r) simulation.spawn(ring(runtime.comm(r)));
    simulation.set_event_budget(60);
    EXPECT_THROW(simulation.run(), sim::EventBudgetExceeded);
    EXPECT_GT(held.use_count(), 1);  // parcels were mid-flight at the trip
  }
  EXPECT_EQ(held.use_count(), 1);
}

TEST(Parcel, DeadlockReleasesUnmatchedPayloads) {
  const Payload held = make_payload(Bytes(512, std::byte{2}));
  auto program = [&held](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 1, held);
      co_await c.send(1, 1, held);
    } else {
      (void)co_await c.recv(0, 2);  // never sent: the run deadlocks
    }
  };
  EXPECT_THROW(run_spmd(PlatformId::SunEthernet, 2, ToolKind::Express, program),
               sim::DeadlockDetected);
  EXPECT_EQ(held.use_count(), 1);
}

TEST(Compute, BillingAllocatesNothing) {
  // compute_flops / compute_intops / compute_copy hand back the delay's
  // awaiter rather than a coroutine, so billing a step allocates nothing
  // and the rank still resumes exactly the billed time later.
  sim::Simulation simulation;
  host::Cluster cluster(simulation, PlatformId::AlphaFddi, 1);
  Runtime runtime(cluster, ToolKind::P4);
  unsigned long long allocs = ~0ULL;
  sim::TimePoint done{};
  auto program = [&](Communicator& c) -> sim::Task<void> {
    co_await c.compute_flops(1.0e6);  // creates the node and the queue's storage
    const auto before = test::heap_allocs();
    co_await c.compute_flops(1.0e6);
    co_await c.compute_intops(2.0e5);
    co_await c.compute_copy(4096);
    allocs = test::heap_allocs() - before;
    done = simulation.now();
  };
  simulation.spawn(program(runtime.comm(0)));
  simulation.run();
  EXPECT_EQ(allocs, 0u);
  const host::CpuModel& cpu = cluster.node(0).cpu();
  EXPECT_EQ(done.ns, (2 * cpu.compute(1.0e6) + cpu.int_ops(2.0e5) + cpu.copy(4096)).ns);
}

// ---------- mailbox: (source, tag) matching ---------------------------------

using sim::milliseconds;
using sim::Simulation;
using sim::Task;
using sim::TimePoint;

/// A message from `src` with `tag` whose payload is the int `body`.
Message envelope(int src, int tag, int body) {
  Packer pk;
  pk.put<int>(body);
  return Message{.src = src, .tag = tag, .data = pk.finish()};
}

int body(const Message& m) { return PayloadReader(m).get<int>(); }

TEST(Mailbox, FifoAndMatcherSelection) {
  Simulation sim;
  Mailbox box(sim);
  std::vector<int> got;
  sim.spawn([](Simulation& s, Mailbox& b) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push(envelope(0, 1, 7));
    b.push(envelope(0, 2, 8));
    b.push(envelope(0, 1, 9));
  }(sim, box), "producer");
  sim.spawn([](Mailbox& b, std::vector<int>& got) -> Task<> {
    got.push_back(body(co_await b.recv(kAnySource, 1)));
    got.push_back(body(co_await b.recv(kAnySource, 1)));
    got.push_back(body(co_await b.recv(kAnySource, kAnyTag)));
  }(box, got), "consumer");
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{7, 9, 8}));
}

TEST(Mailbox, WaiterWokenOnPush) {
  Simulation sim;
  Mailbox box(sim);
  TimePoint when{};
  sim.spawn([](Simulation& s, Mailbox& b, TimePoint& when) -> Task<> {
    const Message m = co_await b.recv(kAnySource, kAnyTag);
    EXPECT_EQ(body(m), 5);
    when = s.now();
  }(sim, box, when));
  sim.spawn([](Simulation& s, Mailbox& b) -> Task<> {
    co_await s.delay(milliseconds(3));
    b.push(envelope(0, 0, 5));
  }(sim, box));
  sim.run();
  EXPECT_EQ(when, TimePoint::origin() + milliseconds(3));
}

TEST(Mailbox, TryRecvIsNonBlocking) {
  // The awaitable's ready check is the non-blocking probe: it takes a
  // queued match, and without one it neither consumes nor posts anything.
  Simulation sim;
  Mailbox box(sim);
  EXPECT_FALSE(box.recv(kAnySource, kAnyTag).await_ready());
  box.push(envelope(0, 3, 3));
  EXPECT_FALSE(box.recv(kAnySource, 9).await_ready());
  EXPECT_FALSE(box.recv(1, kAnyTag).await_ready());
  EXPECT_EQ(box.pending(), 1u);
  auto take = box.recv(kAnySource, kAnyTag);
  ASSERT_TRUE(take.await_ready());
  EXPECT_EQ(body(take.await_resume()), 3);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxEdge, WildcardSourceAndTagMatching) {
  Simulation sim;
  Mailbox box(sim);
  std::vector<int> got;
  sim.spawn([](Simulation& s, Mailbox& b) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push(envelope(2, 9, 1));
    b.push(envelope(3, 5, 2));
    b.push(envelope(2, 5, 3));
  }(sim, box), "producer");
  sim.spawn([](Mailbox& b, std::vector<int>& got) -> Task<> {
    // Exact (src, tag) skips earlier queued messages.
    got.push_back(body(co_await b.recv(2, 5)));
    // Wildcard source, exact tag: oldest tag-5 message remaining.
    got.push_back(body(co_await b.recv(kAnySource, 5)));
    // Full wildcard drains in arrival order.
    got.push_back(body(co_await b.recv(kAnySource, kAnyTag)));
  }(box, got), "consumer");
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{3, 2, 1}));
}

TEST(MailboxEdge, SameTimestampPushesKeepFifoOrder) {
  // Multiple pushes at one simulated instant must drain in push order, and
  // a same-instant producer/consumer interleaving must not reorder: the
  // fast-lane event queue is FIFO within a timestamp.
  Simulation sim;
  Mailbox box(sim);
  std::vector<int> got;
  sim.spawn([](Simulation& s, Mailbox& b) -> Task<> {
    co_await s.delay(milliseconds(2));
    for (int i = 0; i < 6; ++i) b.push(envelope(i % 2, 0, i));  // all at t = 2 ms
  }(sim, box), "producer");
  sim.spawn([](Mailbox& b, std::vector<int>& got) -> Task<> {
    for (int i = 0; i < 6; ++i) got.push_back(body(co_await b.recv(kAnySource, kAnyTag)));
  }(box, got), "consumer");
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(MailboxEdge, CompetingReceiversServedInArrivalOrder) {
  // Two waiters with overlapping matches: a push wakes the waiter that
  // arrived first among those that accept it, so a selective waiter is not
  // starved by a wildcard one that arrived later.
  Simulation sim;
  Mailbox box(sim);
  std::vector<std::pair<char, int>> got;
  sim.spawn([](Mailbox& b, std::vector<std::pair<char, int>>& got) -> Task<> {
    got.emplace_back('s', body(co_await b.recv(kAnySource, 7)));  // selective, first
  }(box, got), "selective");
  sim.spawn([](Simulation& s, Mailbox& b, std::vector<std::pair<char, int>>& got) -> Task<> {
    co_await s.delay(sim::microseconds(1));
    got.emplace_back('w', body(co_await b.recv(kAnySource, kAnyTag)));  // wildcard, second
  }(sim, box, got), "wildcard");
  sim.spawn([](Simulation& s, Mailbox& b) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push(envelope(0, 7, 10));  // both match; selective waiter wins (older)
    b.push(envelope(0, 3, 20));  // only the wildcard waiter matches
  }(sim, box), "producer");
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], std::make_pair('s', 10));
  EXPECT_EQ(got[1], std::make_pair('w', 20));
}

TEST(MailboxEdge, WaitersLeaveFromAnyPositionAndLaterOnesJoinBehind) {
  // Waiters leave the waiting list from its middle and its tail; waiters
  // posted later join behind the one still waiting, and every push reaches
  // the earliest-posted waiter that matches it.
  Simulation sim;
  Mailbox box(sim);
  std::vector<std::pair<int, int>> got;  // (waiter's tag, body)
  auto waiter = [](Simulation& s, Mailbox& b, std::vector<std::pair<int, int>>& got,
                   int after_us, int tag) -> Task<> {
    co_await s.delay(sim::microseconds(after_us));
    got.emplace_back(tag, body(co_await b.recv(kAnySource, tag)));
  };
  sim.spawn(waiter(sim, box, got, 0, 1), "a");
  sim.spawn(waiter(sim, box, got, 1, 2), "b");
  sim.spawn(waiter(sim, box, got, 2, 3), "c");
  sim.spawn([](Simulation& s, Mailbox& b) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push(envelope(0, 2, 20));  // the middle waiter, b
    b.push(envelope(0, 3, 30));  // the last waiter, c
  }(sim, box), "producer 1");
  sim.spawn(waiter(sim, box, got, 2000, 3), "d");
  sim.spawn(waiter(sim, box, got, 2001, kAnyTag), "e");
  sim.spawn([](Simulation& s, Mailbox& b) -> Task<> {
    co_await s.delay(milliseconds(3));
    b.push(envelope(0, 3, 31));  // d: posted before e
    b.push(envelope(0, 9, 90));  // only e matches
    b.push(envelope(0, 1, 10));  // a, waiting since the start
  }(sim, box), "producer 2");
  sim.run();
  const std::vector<std::pair<int, int>> want = {
      {2, 20}, {3, 30}, {3, 31}, {kAnyTag, 90}, {1, 10}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxEdge, NonMatchingPushQueuesPastBlockedWaiter) {
  // A waiter that does not match a message must leave it queued for later
  // receivers instead of consuming or dropping it.
  Simulation sim;
  Mailbox box(sim);
  int selective = 0, sweeper = 0;
  sim.spawn([](Mailbox& b, int& selective) -> Task<> {
    selective = body(co_await b.recv(5, kAnyTag));
  }(box, selective), "selective");
  sim.spawn([](Simulation& s, Mailbox& b, int& sweeper) -> Task<> {
    co_await s.delay(milliseconds(2));
    sweeper = body(co_await b.recv(kAnySource, kAnyTag));
  }(sim, box, sweeper), "sweeper");
  sim.spawn([](Simulation& s, Mailbox& b) -> Task<> {
    co_await s.delay(milliseconds(1));
    b.push(envelope(1, 0, 111));  // not from source 5: queues
    b.push(envelope(5, 0, 555));
  }(sim, box), "producer");
  sim.run();
  EXPECT_EQ(selective, 555);
  EXPECT_EQ(sweeper, 111);
}

}  // namespace
}  // namespace pdc::mp
