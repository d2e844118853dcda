// Scale-study regression suite (ROADMAP item 1): the simulator must run
// 4096-rank programs on the hierarchical platforms in tier-1 time, with
// per-rank state and per-match mailbox work that stay O(active) as P grows.
//
// The binary links the counting operator-new shim (heap_count.cpp) so the
// allocs-per-rank assertions measure the real allocation rate of a run --
// the "flat 256 -> 4096" pin is the load-bearing O(active) gate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "eval/cell.hpp"
#include "fault/plan.hpp"
#include "host/platform.hpp"
#include "mp/api.hpp"
#include "mp/mailbox.hpp"
#include "mp/pack.hpp"
#include "mp/runtime.hpp"
#include "sim/simulation.hpp"
#include "test_support.hpp"

namespace pdc {
namespace {

using fault::FaultPlan;
using host::PlatformId;
using mp::Communicator;
using mp::ToolKind;

using test::fnv1a;
using test::heap_allocs;

int log2_floor(int p) {
  int l = 0;
  while ((1 << (l + 1)) <= p) ++l;
  return l;
}

// Every rank contributes rank+1 to each element; every rank checks its own
// result, so a wrong value on *any* of the P ranks fails the test without
// materialising O(P * len) result storage.
mp::RankProgram checked_global_sum(int procs, int len, std::atomic<int>& failures) {
  return [procs, len, &failures](Communicator& c) -> sim::Task<void> {
    std::vector<std::int32_t> v(static_cast<std::size_t>(len), c.rank() + 1);
    co_await c.global_sum(v);
    const std::int32_t expected =
        static_cast<std::int32_t>(std::int64_t{procs} * (procs + 1) / 2);
    for (const auto x : v) {
      if (x != expected) failures.fetch_add(1, std::memory_order_relaxed);
    }
  };
}

// ---------- the headline gate: 4096 ranks in tier-1 time --------------------

TEST(ScaleSmoke, GlobalSum1024FatTree) {
  std::atomic<int> failures{0};
  const auto out = mp::run_spmd(PlatformId::ClusterFatTree, 1024, ToolKind::Express,
                                checked_global_sum(1024, 64, failures));
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(out.events, 0u);
  EXPECT_GT(out.messages, 1024u);
}

TEST(ScaleSmoke, GlobalSum4096FatTree) {
  std::atomic<int> failures{0};
  const auto out = mp::run_spmd(PlatformId::ClusterFatTree, 4096, ToolKind::Express,
                                checked_global_sum(4096, 64, failures));
  EXPECT_EQ(failures.load(), 0);
  // Recursive doubling: every rank sends one message per round.
  EXPECT_GE(out.messages, 4096u * 12u);
}

TEST(ScaleSmoke, GlobalSum4096Dragonfly) {
  std::atomic<int> failures{0};
  (void)mp::run_spmd(PlatformId::ClusterDragonfly, 4096, ToolKind::Express,
                     checked_global_sum(4096, 64, failures));
  EXPECT_EQ(failures.load(), 0);
}

// ---------- O(active) allocation gate ---------------------------------------

TEST(AllocsPerRank, FlatUpTo4096) {
  // Recursive doubling does log2(P) rounds per rank, so raw allocs-per-rank
  // legitimately grows ~1.5x from 256 (8 rounds) to 4096 (12 rounds);
  // normalising by rounds removes that. One residual super-linear term is
  // benign and bounded: the thread-local BufferPool retains a fixed number
  // of blocks per class (64 buffers and 256 nodes) while peak live payloads
  // are O(P) (every rank holds one in-flight message), so the pool hit rate
  // decays toward zero and saturates around P=1024. Gate on the saturated region: 1024 -> 4096
  // must be flat, and 256 -> 4096 comfortably under 2x -- an O(P) per-rank
  // cost (eager mailboxes, per-rank link tables, allocating rank scans)
  // would show up as a ~16x blowup in either bound.
  auto allocs_per_rank_round = [](int procs) {
    std::atomic<int> failures{0};
    const auto program = checked_global_sum(procs, 64, failures);
    const auto before = heap_allocs();
    (void)mp::run_spmd(PlatformId::ClusterFatTree, procs, ToolKind::Express, program);
    const auto after = heap_allocs();
    EXPECT_EQ(failures.load(), 0);
    return static_cast<double>(after - before) /
           (static_cast<double>(procs) * log2_floor(procs));
  };
  (void)allocs_per_rank_round(256);  // warm thread-local pools and gtest state
  const double at_256 = allocs_per_rank_round(256);
  const double at_1024 = allocs_per_rank_round(1024);
  const double at_4096 = allocs_per_rank_round(4096);
  EXPECT_LT(at_4096, at_1024 * 1.2)
      << "allocs/rank/round grew 1024->4096: " << at_1024 << " -> " << at_4096;
  EXPECT_LT(at_4096, at_256 * 2.0)
      << "allocs/rank/round grew 256->4096: " << at_256 << " -> " << at_4096;
}

TEST(ActiveState, SparseTrafficAt4096Ranks) {
  // A 4096-slot cluster running a 2-rank exchange materialises per-rank
  // state for exactly the ranks that touched the fabric.
  sim::Simulation simulation;
  host::Cluster cluster(simulation, PlatformId::ClusterFlat, 4096);
  mp::Runtime runtime(cluster, ToolKind::P4);
  std::int64_t got = -1;
  auto program = [&got](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      mp::Packer pk;
      pk.put<std::int64_t>(42);
      co_await c.send(4095, 7, pk.finish());
    } else {
      mp::Message m = co_await c.recv(0, 7);
      mp::PayloadReader r(m.data);
      got = r.get<std::int64_t>();
    }
  };
  simulation.spawn(program(runtime.comm(0)), "rank0");
  simulation.spawn(program(runtime.comm(4095)), "rank4095");
  simulation.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(cluster.active_nodes(), 2u);
  EXPECT_LE(runtime.active_mailboxes(), 2u);
}

TEST(ActiveState, EmptyMailboxAllocatesNothing) {
  // A rank whose mailbox is materialised but never queues a message (a
  // pure sender, or a receiver whose every message meets a posted recv)
  // must not pay for empty queues: at P=4096 that would be per-rank cost.
  sim::Simulation simulation;
  const auto before = heap_allocs();
  {
    mp::Mailbox box(simulation);
    EXPECT_FALSE(box.recv(mp::kAnySource, mp::kAnyTag).await_ready());
    EXPECT_FALSE(box.recv(3, 7).await_ready());
    EXPECT_EQ(box.pending(), 0u);
  }
  EXPECT_EQ(heap_allocs() - before, 0u);
}

// ---------- mailbox matching stays O(active) under many-to-one --------------

TEST(MailboxScan, ManyToOnePinnedAt256) {
  // 255 senders, one receiver draining in *reverse* arrival order: the
  // unmatched queue holds ~254 messages when the first recv matches. With
  // source-bucketed matching each recv scans only its sender's bucket, so
  // total scan work stays O(P); a linear scan would do ~P^2/2 ~ 32k probes.
  constexpr int kProcs = 256;
  auto program = [](Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      for (int src = kProcs - 1; src >= 1; --src) {
        (void)co_await c.recv(src, /*tag=*/src);
      }
    } else {
      mp::Packer pk;
      pk.put<std::int64_t>(c.rank());
      co_await c.send(0, /*tag=*/c.rank(), pk.finish());
    }
  };
  const auto out = mp::run_spmd(PlatformId::ClusterFlat, kProcs, ToolKind::P4, program);
  EXPECT_GE(out.mailbox.max_depth, 200u);  // the pile-up really happened
  // One message can be handed straight to a posted waiter without ever
  // queueing; everything else is taken out of the unmatched queue.
  EXPECT_GE(out.mailbox.matches, kProcs - 2u);
  EXPECT_LE(out.mailbox.items_scanned, 8u * kProcs)
      << "bucketed matching regressed to linear scans";
}

/// Non-blocking receive through the awaitable's ready check: a match that
/// is already queued is taken without suspending.
std::optional<mp::Message> try_take(mp::Mailbox& box, int src, int tag) {
  auto r = box.recv(src, tag);
  if (!r.await_ready()) return std::nullopt;
  return r.await_resume();
}

/// A message from `src` whose tag carries the test's value.
mp::Message item(int src, int val) {
  mp::Message m;
  m.src = src;
  m.tag = val;
  return m;
}

TEST(MailboxScan, BucketedMatchingPreservesFifoAndCounts) {
  sim::Simulation simulation;
  mp::Mailbox box(simulation);
  box.push(item(1, 10));
  box.push(item(2, 20));
  box.push(item(1, 11));
  box.push(item(2, 21));
  EXPECT_EQ(box.stats().max_depth, 4u);

  // Take from one source: its oldest message, the others intact.
  auto a = try_take(box, 2, mp::kAnyTag);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->tag, 20);
  EXPECT_EQ(box.stats().items_scanned, 1u);  // the scan never saw src 1

  // A wildcard-source take still returns global arrival order.
  auto b = try_take(box, mp::kAnySource, mp::kAnyTag);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->tag, 10);

  // Each source's queue stays in arrival order after the global take.
  auto c = try_take(box, 1, mp::kAnyTag);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->tag, 11);
  auto d = try_take(box, 2, mp::kAnyTag);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->tag, 21);
  EXPECT_FALSE(try_take(box, mp::kAnySource, mp::kAnyTag).has_value());
  EXPECT_EQ(box.stats().pushes, 4u);
  EXPECT_EQ(box.stats().matches, 4u);
  EXPECT_EQ(box.pending(), 0u);
}

// ---------- long-lived blockers and interleaved churn -----------------------

TEST(MailboxCompact, LongSoakDepthStaysBounded) {
  sim::Simulation simulation;
  mp::Mailbox box(simulation);
  // A never-matched message from source 0 outlives thousands of rounds of
  // traffic from source 1 -- the scale study's worst case, a straggler's
  // unmatched send. The churn must neither disturb nor bury it.
  box.push(item(0, 999));
  constexpr int kRounds = 20'000;
  for (int i = 0; i < kRounds; ++i) {
    box.push(item(1, i));
    auto got = try_take(box, 1, mp::kAnyTag);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, i);
  }
  EXPECT_EQ(box.pending(), 1u);
  EXPECT_EQ(box.stats().max_depth, 2u);
  // The blocker survived the soak and is still matchable.
  auto blocker = try_take(box, 0, mp::kAnyTag);
  ASSERT_TRUE(blocker.has_value());
  EXPECT_EQ(blocker->tag, 999);
  EXPECT_EQ(box.stats().pushes, kRounds + 1u);
  EXPECT_EQ(box.stats().matches, kRounds + 1u);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(MailboxCompact, RebuildPreservesArrivalOrderAndBuckets) {
  sim::Simulation simulation;
  mp::Mailbox box(simulation);
  // Interleave two sources -- three churned src-1 messages per retained
  // src-2 message, so taken and kept messages alternate in arrival order.
  constexpr int kItems = 200;
  for (int i = 0; i < kItems; ++i) {
    for (int k = 0; k < 3; ++k) box.push(item(1, 3 * i + k));
    box.push(item(2, i));
    for (int k = 0; k < 3; ++k) {
      auto got = try_take(box, 1, mp::kAnyTag);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->tag, 3 * i + k);
    }
  }
  EXPECT_EQ(box.pending(), static_cast<std::size_t>(kItems));
  // A wildcard-source take still returns global arrival order...
  auto first = try_take(box, mp::kAnySource, mp::kAnyTag);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->src, 2);
  EXPECT_EQ(first->tag, 0);
  // ...and the source's queue drains the rest in arrival order.
  for (int i = 1; i < kItems; ++i) {
    auto got = try_take(box, 2, mp::kAnyTag);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->tag, i);
  }
  EXPECT_FALSE(try_take(box, mp::kAnySource, mp::kAnyTag).has_value());
  EXPECT_EQ(box.pending(), 0u);
}

// ---------- collectives at awkward P on the new fabrics ---------------------

TEST(AwkwardP, CollectivesOnHierarchicalFabrics) {
  for (const auto platform : {PlatformId::ClusterFatTree, PlatformId::ClusterDragonfly}) {
    for (const int procs : {48, 1023}) {
      std::atomic<int> failures{0};
      std::atomic<int> bcast_failures{0};
      auto program = [procs, &failures, &bcast_failures](Communicator& c) -> sim::Task<void> {
        mp::Bytes blob(64, c.rank() == 3 ? std::byte{0x5A} : std::byte{0});
        co_await c.broadcast(3, blob, 17);
        for (const auto byte : blob) {
          if (byte != std::byte{0x5A}) bcast_failures.fetch_add(1);
        }
        std::vector<std::int32_t> v(8, c.rank() + 1);
        co_await c.global_sum(v);
        const auto expected = static_cast<std::int32_t>(std::int64_t{procs} * (procs + 1) / 2);
        for (const auto x : v) {
          if (x != expected) failures.fetch_add(1);
        }
      };
      (void)mp::run_spmd(platform, procs, ToolKind::Express, program);
      EXPECT_EQ(failures.load(), 0) << host::to_string(platform) << " procs=" << procs;
      EXPECT_EQ(bcast_failures.load(), 0) << host::to_string(platform) << " procs=" << procs;
    }
  }
}

// ---------- determinism pins ------------------------------------------------

TEST(Determinism, RepeatedCellsAreBitIdentical) {
  for (const auto platform : host::scale_platforms()) {
    const eval::TplCell cell{.primitive = eval::Primitive::GlobalSum,
                             .platform = platform,
                             .tool = ToolKind::Express,
                             .bytes = 0,
                             .procs = 48,
                             .global_sum_ints = 256};
    const auto first = eval::tpl_cell_ms(cell);
    const auto second = eval::tpl_cell_ms(cell);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, *second) << host::to_string(platform);  // exact, not near
  }
}

TEST(Determinism, SerialAndParallelSweepsMatchOnScalePlatforms) {
  std::vector<eval::CellSpec> cells;
  for (const auto platform : host::scale_platforms()) {
    for (const int procs : {16, 48}) {
      cells.push_back(eval::CellSpec::of(eval::TplCell{.primitive = eval::Primitive::GlobalSum,
                                                       .platform = platform,
                                                       .tool = ToolKind::Express,
                                                       .bytes = 0,
                                                       .procs = procs,
                                                       .global_sum_ints = 128}));
      cells.push_back(eval::CellSpec::of(eval::TplCell{.primitive = eval::Primitive::SendRecv,
                                                       .platform = platform,
                                                       .tool = ToolKind::P4,
                                                       .bytes = 65536,
                                                       .procs = procs}));
    }
  }
  const auto serial = eval::sweep(cells, 1);
  const auto serial_mbox = eval::last_sweep_mailbox_stats();
  const auto parallel = eval::sweep(cells, 4);
  const auto parallel_mbox = eval::last_sweep_mailbox_stats();
  for (const eval::CellResult& r : serial) ASSERT_EQ(r.status, eval::CellStatus::Ok) << r.error;
  EXPECT_EQ(serial, parallel);
  // The telemetry aggregate is order-independent sums, so it is exactly
  // thread-count-invariant too.
  EXPECT_EQ(serial_mbox.pushes, parallel_mbox.pushes);
  EXPECT_EQ(serial_mbox.matches, parallel_mbox.matches);
  EXPECT_EQ(serial_mbox.items_scanned, parallel_mbox.items_scanned);
  EXPECT_EQ(serial_mbox.peak_depth_sum, parallel_mbox.peak_depth_sum);
  EXPECT_GT(serial_mbox.matches, 0u);
  EXPECT_LT(serial_mbox.scans_per_match(), 4.0);
}

// ---------- faults compose with the hierarchical fabrics --------------------

TEST(FaultCompose, LossyFatTreeAt256StillSumsExactly) {
  std::atomic<int> failures{0};
  const auto out = mp::run_spmd(PlatformId::ClusterFatTree, 256, ToolKind::P4,
                                checked_global_sum(256, 16, failures), FaultPlan::uniform(0.05));
  EXPECT_EQ(failures.load(), 0);  // distributed result == fault-free expectation
  EXPECT_GT(out.injected.drops, 0);
  EXPECT_GT(out.transport.retransmits, 0);
}

// ---------- absolute byte pin over scale-fabric and faulted cells ----------

TEST(ScaleGolden, FabricAndFaultedCellsMatchPinnedDigest) {
  // Broadcast (p4), global sum (Express) and ring (PVM) on every scale
  // fabric at P in {256, 1024}, clean and at 5% uniform drop, plus one
  // App cell and two scheduler streams (one faulted). Every encoded result
  // byte is folded into one digest; the constant was captured from the
  // event loop these cells ran on when it was written, so any change in
  // simulated timing, transport accounting or schedule moves it.
  std::vector<eval::CellSpec> specs;
  for (const auto platform : host::scale_platforms()) {
    for (const int procs : {256, 1024}) {
      for (const bool faulted : {false, true}) {
        const FaultPlan plan = faulted ? FaultPlan::uniform(0.05) : FaultPlan{};
        specs.push_back(eval::CellSpec::of(eval::TplCell{.primitive = eval::Primitive::Broadcast,
                                                         .platform = platform,
                                                         .tool = ToolKind::P4,
                                                         .bytes = 4096,
                                                         .procs = procs,
                                                         .faults = plan}));
        specs.push_back(eval::CellSpec::of(eval::TplCell{.primitive = eval::Primitive::GlobalSum,
                                                         .platform = platform,
                                                         .tool = ToolKind::Express,
                                                         .bytes = 0,
                                                         .procs = procs,
                                                         .global_sum_ints = 256,
                                                         .faults = plan}));
        specs.push_back(eval::CellSpec::of(eval::TplCell{.primitive = eval::Primitive::Ring,
                                                         .platform = platform,
                                                         .tool = ToolKind::Pvm,
                                                         .bytes = 1024,
                                                         .procs = procs,
                                                         .faults = plan}));
      }
    }
  }
  specs.push_back(eval::CellSpec::of(eval::AppCell{.platform = PlatformId::AlphaFddi,
                                                   .tool = ToolKind::Express,
                                                   .app = eval::AppKind::Fft2d,
                                                   .procs = 4}));
  eval::SchedCell sched{.platform = PlatformId::ClusterFatTree, .nodes = 128, .njobs = 40};
  specs.push_back(eval::CellSpec::of(sched));
  sched.platform = PlatformId::ClusterDragonfly;
  sched.seed = 7;
  sched.faults = FaultPlan::uniform(0.05);
  specs.push_back(eval::CellSpec::of(sched));

  std::uint64_t digest = test::kFnvBasis;
  for (const auto& spec : specs) {
    const eval::CellResult result = eval::run_cell(spec);
    ASSERT_EQ(result.status, eval::CellStatus::Ok) << result.error;
    digest = fnv1a(digest, eval::encode_result(result));
  }
  EXPECT_EQ(digest, 0x25257c95084d1f8aULL) << std::hex << "digest 0x" << digest;
}

}  // namespace
}  // namespace pdc
