// Fault-injection + reliable-transport tests: the RNG-stream building
// blocks, the FaultyNetwork decorator's contract (deterministic,
// zero-plan == passthrough), the transport's recovery guarantees under
// drop / corruption / duplication / reordering / link flaps, and a byte pin
// over corrupting and duplicating cells.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <numbers>
#include <span>
#include <vector>

#include "apps/mc/montecarlo.hpp"
#include "eval/cell.hpp"
#include "eval/tpl.hpp"
#include "fault/faulty_network.hpp"
#include "fault/plan.hpp"
#include "host/platform.hpp"
#include "mp/api.hpp"
#include "mp/pack.hpp"
#include "sim/rng.hpp"
#include "test_support.hpp"

namespace pdc {
namespace {

using fault::FaultPlan;
using host::PlatformId;
using mp::ToolKind;

// ---------- named RNG streams (satellite: stream-splitting audit) -----------

TEST(NamedStream, DistinctLabelsGiveDistinctStreams) {
  const auto a = sim::named_stream(42, "pdc.fault.network");
  const auto b = sim::named_stream(42, "pdc.app.workload");
  const auto c = sim::named_stream(43, "pdc.fault.network");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(NamedStream, IsDeterministic) {
  constexpr auto kA = sim::named_stream(0xFA17, "pdc.fault.network");
  EXPECT_EQ(sim::named_stream(0xFA17, "pdc.fault.network"), kA);
}

// ---------- FaultPlan -------------------------------------------------------

TEST(FaultPlan, DisabledByDefault) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(FaultPlan::uniform(0.1).enabled());
  FaultPlan flap_only;
  flap_only.flaps.push_back({.a = 0, .b = 1, .start = {}, .end = sim::TimePoint{1000}});
  EXPECT_TRUE(flap_only.enabled());
  FaultPlan override_only;
  override_only.overrides.push_back({.src = 0, .dst = 1, .faults = {.drop_rate = 0.5}});
  EXPECT_TRUE(override_only.enabled());
}

TEST(FaultPlan, PerLinkOverridesWin) {
  FaultPlan plan = FaultPlan::uniform(0.1);
  plan.overrides.push_back({.src = 2, .dst = 3, .faults = {.drop_rate = 0.9}});
  EXPECT_DOUBLE_EQ(plan.faults_for(0, 1).drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.faults_for(2, 3).drop_rate, 0.9);
  EXPECT_DOUBLE_EQ(plan.faults_for(3, 2).drop_rate, 0.1);  // directed
}

TEST(FaultPlan, FlapWindowMatching) {
  const fault::FlapWindow link{.a = 0, .b = 1, .start = sim::TimePoint{100},
                               .end = sim::TimePoint{200}};
  EXPECT_TRUE(link.covers(0, 1, sim::TimePoint{150}));
  EXPECT_TRUE(link.covers(1, 0, sim::TimePoint{150}));  // undirected pair
  EXPECT_FALSE(link.covers(0, 2, sim::TimePoint{150}));
  EXPECT_FALSE(link.covers(0, 1, sim::TimePoint{99}));
  EXPECT_FALSE(link.covers(0, 1, sim::TimePoint{201}));

  const fault::FlapWindow node{.a = 2, .b = -1, .start = sim::TimePoint{0},
                               .end = sim::TimePoint{100}};
  EXPECT_TRUE(node.covers(2, 5, sim::TimePoint{50}));
  EXPECT_TRUE(node.covers(5, 2, sim::TimePoint{50}));
  EXPECT_FALSE(node.covers(3, 5, sim::TimePoint{50}));

  const fault::FlapWindow blackout{.a = -1, .b = -1, .start = sim::TimePoint{0},
                                   .end = sim::TimePoint{100}};
  EXPECT_TRUE(blackout.covers(3, 5, sim::TimePoint{50}));
}

TEST(FaultyNetworkCtor, RejectsInvalidPlans) {
  sim::Simulation simulation;
  host::Cluster cluster(simulation, PlatformId::SunEthernet, 2);
  auto make = [&](FaultPlan plan) {
    sim::Simulation s2;
    host::Cluster c2(s2, PlatformId::SunEthernet, 2);
    fault::FaultyNetwork wire(s2, c2.take_network(), std::move(plan));
  };
  EXPECT_THROW(make(FaultPlan::uniform(1.0)), std::invalid_argument);
  EXPECT_THROW(make(FaultPlan::uniform(-0.1)), std::invalid_argument);
  FaultPlan bad_jitter = FaultPlan::uniform(0.0, 0.0, 0.0, 0.5, sim::nanoseconds(-1));
  EXPECT_THROW(make(bad_jitter), std::invalid_argument);
  FaultPlan bad_window;
  bad_window.flaps.push_back(
      {.a = 0, .b = 1, .start = sim::TimePoint{200}, .end = sim::TimePoint{100}});
  EXPECT_THROW(make(bad_window), std::invalid_argument);
}

// ---------- zero-fault plan == plain wire, bit for bit ----------------------

TEST(ZeroFaultPlan, DisabledPlanDecoratorMatchesBareWireExactly) {
  // run_spmd leaves the wire bare for a disabled plan, so the decorator is
  // wired by hand here: a FaultyNetwork with a dead plan must be a pure
  // passthrough, bit for bit.
  auto program = [](mp::Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      mp::Bytes data(8192, std::byte{0x5A});
      co_await c.send(1, 7, mp::make_payload(std::move(data)));
      (void)co_await c.recv(1, 8);
    } else {
      mp::Message m = co_await c.recv(0, 7);
      co_await c.send(0, 8, m.data);
    }
  };
  for (ToolKind tool : mp::all_tools()) {
    for (PlatformId platform : {PlatformId::SunEthernet, PlatformId::SunAtmLan}) {
      const auto plain = mp::run_spmd(platform, 2, tool, program);

      sim::Simulation simulation;
      host::Cluster cluster(simulation, platform, 2);
      auto decorated =
          std::make_unique<fault::FaultyNetwork>(simulation, cluster.take_network(), FaultPlan{});
      const fault::FaultyNetwork* wire = decorated.get();
      cluster.install_network(std::move(decorated));
      mp::Runtime runtime(cluster, tool);
      for (int r = 0; r < 2; ++r) simulation.spawn(program(runtime.comm(r)));
      const sim::Duration elapsed = simulation.run() - sim::TimePoint::origin();

      EXPECT_TRUE(runtime.reliable_wire());
      EXPECT_EQ(plain.elapsed.ns, elapsed.ns) << to_string(tool) << " on " << to_string(platform);
      EXPECT_EQ(plain.events, simulation.events_processed());
      EXPECT_EQ(plain.messages, runtime.messages_sent());
      EXPECT_EQ(runtime.transport_total(), mp::TransportStats{});
      EXPECT_EQ(wire->stats().frames, 0);  // disabled plan draws nothing
    }
  }
}

TEST(ZeroFaultPlan, Table3GoldenCellsUnchangedThroughFaultPath) {
  // The same three cells test_eval pins to full double precision, here
  // routed through the (disabled) fault axis of the TPL API.
  EXPECT_EQ(eval::sendrecv_ms(PlatformId::SunEthernet, ToolKind::Pvm, 65536, FaultPlan{}),
            202.50319999999999);
  EXPECT_EQ(eval::sendrecv_ms(PlatformId::SunAtmLan, ToolKind::P4, 8192, FaultPlan{}),
            6.7196720000000001);
  EXPECT_EQ(eval::sendrecv_ms(PlatformId::SunEthernet, ToolKind::Express, 1024, FaultPlan{}),
            8.0451999999999995);
}

// ---------- recovery under injected faults ----------------------------------

/// rank 0 streams `count` distinct payloads to rank 1; rank 1 checks value
/// and arrival order, then echoes a final ack so rank 0 outlives the
/// protocol. Data integrity + per-link FIFO in one harness.
mp::RankProgram ordered_stream_program(int count, std::vector<std::int64_t>* received) {
  return [count, received](mp::Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      for (int i = 0; i < count; ++i) {
        // Built without a braced init list: GCC miscompiles initializer
        // lists inside co_await expressions ("array used as initializer").
        std::vector<std::int64_t> vals(2);
        vals[0] = i;
        vals[1] = std::int64_t{1000003} * i;
        co_await c.send(1, 5, mp::pack_vector(vals));
      }
      (void)co_await c.recv(1, 6);
    } else {
      for (int i = 0; i < count; ++i) {
        mp::Message m = co_await c.recv(0, 5);
        const auto vals = mp::payload_span<std::int64_t>(*m.data);
        received->push_back(vals[0]);
        EXPECT_EQ(vals[1], vals[0] * 1000003);
      }
      co_await c.send(0, 6, mp::make_payload(mp::Bytes(16, std::byte{1})));
    }
  };
}

TEST(FaultRecovery, SurvivesDropsWithRetransmits) {
  std::vector<std::int64_t> received;
  const auto out = mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4,
                                ordered_stream_program(40, &received), FaultPlan::uniform(0.2));
  ASSERT_EQ(received.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  EXPECT_GT(out.injected.drops, 0);
  EXPECT_GT(out.transport.retransmits, 0);
  EXPECT_GT(out.transport.drops_seen, 0);
}

TEST(FaultRecovery, RejectsCorruptionByChecksum) {
  std::vector<std::int64_t> received;
  const auto out =
      mp::run_spmd(PlatformId::SunAtmLan, 2, ToolKind::P4, ordered_stream_program(40, &received),
                   FaultPlan::uniform(0.0, 0.15));
  ASSERT_EQ(received.size(), 40u);
  EXPECT_GT(out.injected.corruptions, 0);
  EXPECT_GT(out.transport.corrupt_rejected, 0);
  EXPECT_GT(out.transport.retransmits, 0);
}

TEST(FaultRecovery, DiscardsWireDuplicates) {
  std::vector<std::int64_t> received;
  const auto out =
      mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4, ordered_stream_program(40, &received),
                   FaultPlan::uniform(0.0, 0.0, 0.4));
  // Exactly-once delivery: every duplicate was discarded, none leaked.
  ASSERT_EQ(received.size(), 40u);
  EXPECT_GT(out.injected.duplicates, 0);
  EXPECT_GT(out.transport.dup_discarded, 0);
}

TEST(FaultRecovery, ReorderingJitterPreservesAppOrder) {
  std::vector<std::int64_t> received;
  const auto out = mp::run_spmd(
      PlatformId::SunAtmLan, 2, ToolKind::P4,
      ordered_stream_program(40, &received),
      FaultPlan::uniform(0.0, 0.0, 0.0, 0.5, sim::milliseconds(5)));
  EXPECT_GT(out.injected.reorders, 0);
  ASSERT_EQ(received.size(), 40u);
  // The transport releases in sequence order, so the app sees FIFO even
  // though frames overtook each other on the wire.
  for (int i = 0; i < 40; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

TEST(FaultRecovery, RidesOutLinkFlapWindow) {
  FaultPlan plan;  // no random faults, one deterministic outage
  plan.flaps.push_back({.a = 0, .b = 1, .start = sim::TimePoint{0},
                        .end = sim::TimePoint{sim::milliseconds(40).ns}});
  std::vector<std::int64_t> received;
  const auto out = mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4,
                                ordered_stream_program(8, &received), plan);
  ASSERT_EQ(received.size(), 8u);
  EXPECT_GT(out.injected.flap_drops, 0);
  EXPECT_GT(out.transport.retransmits, 0);
  // The run cannot end before the window lifts: delivery needed the link.
  EXPECT_GT(out.elapsed, sim::milliseconds(40));
}

TEST(FaultRecovery, PermanentOutageRaisesTransportFailure) {
  FaultPlan plan;
  plan.flaps.push_back({.a = -1, .b = -1, .start = sim::TimePoint{0},
                        .end = sim::TimePoint{sim::seconds(3600).ns}});
  std::vector<std::int64_t> received;
  EXPECT_THROW(mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4,
                            ordered_stream_program(2, &received), plan),
               mp::TransportFailure);

  // The messages stranded in flight by the throw release their payloads.
  const mp::Payload held = mp::make_payload(mp::Bytes(2048, std::byte{7}));
  auto program = [&held](mp::Communicator& c) -> sim::Task<void> {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) co_await c.send(1, 5, held);
    }
    (void)co_await c.recv(1 - c.rank(), 6);
  };
  for (const ToolKind tool : {ToolKind::P4, ToolKind::Express, ToolKind::Pvm}) {
    EXPECT_THROW(mp::run_spmd(PlatformId::SunEthernet, 2, tool, program, plan),
                 mp::TransportFailure);
    EXPECT_EQ(held.use_count(), 1) << mp::to_string(tool);
  }
}

// ---------- determinism -----------------------------------------------------

TEST(FaultDeterminism, SameSeedReplaysBitIdentically) {
  const FaultPlan plan = FaultPlan::uniform(0.15, 0.05, 0.1, 0.2, sim::milliseconds(2));
  auto run_once = [&](std::vector<std::int64_t>* received) {
    return mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::Pvm,
                        ordered_stream_program(25, received), plan);
  };
  std::vector<std::int64_t> r1, r2;
  const auto a = run_once(&r1);
  const auto b = run_once(&r2);
  EXPECT_EQ(a.elapsed.ns, b.elapsed.ns);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.transport, b.transport);
  EXPECT_EQ(a.injected.frames, b.injected.frames);
  EXPECT_EQ(a.injected.drops, b.injected.drops);
  EXPECT_EQ(a.injected.corruptions, b.injected.corruptions);
  EXPECT_EQ(a.injected.duplicates, b.injected.duplicates);
  EXPECT_EQ(a.injected.reorders, b.injected.reorders);
  EXPECT_EQ(r1, r2);
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  std::vector<std::int64_t> r1, r2;
  const auto a =
      mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4, ordered_stream_program(30, &r1),
                   FaultPlan::uniform(0.25, 0, 0, 0, {}, 1));
  const auto b =
      mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4, ordered_stream_program(30, &r2),
                   FaultPlan::uniform(0.25, 0, 0, 0, {}, 2));
  // Both recover the same app data...
  EXPECT_EQ(r1, r2);
  // ...but the injected fault sequence (and hence timing) differs.
  EXPECT_NE(a.elapsed.ns, b.elapsed.ns);
}

// ---------- absolute byte pin over corrupting and duplicating cells ---------

using test::fnv1a;

TEST(FaultGolden, CorruptingCellsMatchPinnedDigest) {
  // SendRecv (2 ranks) and Ring (4 ranks) on every paper platform, every
  // tool, {1, 8, 64} KiB, under the service mix and a heavy mix that
  // corrupts, duplicates and reorders. TPL results encode only the
  // simulated time, so the summed transport counters are folded in too:
  // the digest moves if a single rejection, discard or retransmit does.
  // The constant was captured before the transport stopped checksumming
  // payloads; it pins that the corruption verdict is unchanged.
  const FaultPlan mixes[] = {
      FaultPlan::uniform(0.03, 0.01, 0.01, 0.0, sim::microseconds(200)),
      FaultPlan::uniform(0.05, 0.2, 0.2, 0.2, sim::microseconds(500)),
  };
  std::uint64_t digest = test::kFnvBasis;
  std::uint64_t seed = 0xC0DE;
  const mp::TransportStats before = mp::transport_accumulator().transport;
  int cells = 0;
  for (const auto primitive : {eval::Primitive::SendRecv, eval::Primitive::Ring}) {
    for (const auto platform : host::all_platforms()) {
      for (const auto tool : mp::all_tools()) {
        for (const std::int64_t kib : {1, 8, 64}) {
          for (FaultPlan plan : mixes) {
            plan.seed = seed++;
            const eval::TplCell cell{.primitive = primitive,
                                     .platform = platform,
                                     .tool = tool,
                                     .bytes = kib * 1024,
                                     .procs = primitive == eval::Primitive::Ring ? 4 : 2,
                                     .faults = plan};
            const eval::CellResult result = eval::run_cell(eval::CellSpec::of(cell));
            ASSERT_EQ(result.status, eval::CellStatus::Ok) << result.error;
            digest = fnv1a(digest, eval::encode_result(result));
            ++cells;
          }
        }
      }
    }
  }
  const mp::TransportStats after = mp::transport_accumulator().transport;
  const mp::TransportStats delta{
      .retransmits = after.retransmits - before.retransmits,
      .drops_seen = after.drops_seen - before.drops_seen,
      .corrupt_rejected = after.corrupt_rejected - before.corrupt_rejected,
      .dup_discarded = after.dup_discarded - before.dup_discarded};
  for (const std::int64_t v :
       {delta.retransmits, delta.drops_seen, delta.corrupt_rejected, delta.dup_discarded}) {
    std::array<std::byte, 8> le{};  // little-endian, as encode_result writes
    for (std::size_t i = 0; i < le.size(); ++i) {
      le[i] = static_cast<std::byte>(static_cast<std::uint64_t>(v) >> (8 * i));
    }
    digest = fnv1a(digest, le);
  }
  EXPECT_EQ(cells, 216);
  // The pin must cover the paths it exists for.
  EXPECT_GT(delta.corrupt_rejected, 0);
  EXPECT_GT(delta.dup_discarded, 0);
  EXPECT_EQ(digest, 0xd1c71dd85af12969ULL) << std::hex << "digest 0x" << digest << std::dec
                            << " retransmits " << delta.retransmits << " drops "
                            << delta.drops_seen << " corrupt " << delta.corrupt_rejected
                            << " dup " << delta.dup_discarded;
}

// ---------- satellite: MC results immune to the fault RNG stream ------------

TEST(RngIsolation, MonteCarloUnchangedByZeroRatePlanAndByDrops) {
  const auto expected = apps::mc::integrate_serial(120'000, 4, 2, 99);
  auto run_mc = [&](const FaultPlan& plan) {
    apps::mc::Result got{};
    auto program = [&got](mp::Communicator& c) -> sim::Task<void> {
      apps::mc::Result local{};
      co_await apps::mc::integrate_distributed(c, 120'000, 4, 99, &local);
      if (c.rank() == 0) got = local;
    };
    mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4, program, plan);
    return got;
  };
  // Plain-wire distributed run: the bit-exact reference for RNG isolation.
  // (Serial differs from distributed in the last ulp of the reduction, so
  // it is only a 1e-12 reference — same tolerance the app suite uses.)
  apps::mc::Result plain{};
  auto plain_program = [&plain](mp::Communicator& c) -> sim::Task<void> {
    apps::mc::Result local{};
    co_await apps::mc::integrate_distributed(c, 120'000, 4, 99, &local);
    if (c.rank() == 0) plain = local;
  };
  mp::run_spmd(PlatformId::SunEthernet, 2, ToolKind::P4, plain_program);
  EXPECT_EQ(plain.samples, expected.samples);
  EXPECT_NEAR(plain.estimate, expected.estimate, 1e-12);
  // A zero-rate plan must not perturb a single app-level RNG draw: the
  // fault stream is a named substream, not a sibling of the app's.
  const auto with_dead_plan = run_mc(FaultPlan{});
  EXPECT_EQ(with_dead_plan.samples, plain.samples);
  EXPECT_EQ(with_dead_plan.estimate, plain.estimate);  // bit-identical
  // Even a lossy wire only delays messages; the numerics are untouched.
  const auto with_drops = run_mc(FaultPlan::uniform(0.1));
  EXPECT_EQ(with_drops.samples, plain.samples);
  EXPECT_EQ(with_drops.estimate, plain.estimate);  // bit-identical
  EXPECT_NEAR(with_drops.estimate, std::numbers::pi, 0.02);
}

}  // namespace
}  // namespace pdc
