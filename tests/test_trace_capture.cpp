// pdceval -- end-to-end trace capture tests.
//
// These run real evaluation-grid cells with a capture installed and pin
// (a) that tracing never perturbs the simulated timing, (b) that the
// captured stream is bit-identical across sweep thread counts, and
// (c) golden analysis results on fixed cells -- any change to probe
// placement or the analyses shows up as an exact-integer diff here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "eval/sched_cell.hpp"
#include "eval/trace_cell.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "test_support.hpp"

namespace eval = pdc::eval;
namespace trace = pdc::trace;
namespace host = pdc::host;
namespace mp = pdc::mp;

namespace {

eval::CellSpec ping_pong_cell() {
  eval::TplCell cell;
  cell.primitive = eval::Primitive::SendRecv;
  cell.platform = host::PlatformId::SunEthernet;
  cell.tool = mp::ToolKind::P4;
  cell.bytes = 1;
  cell.procs = 2;
  return eval::CellSpec::of(cell);
}

}  // namespace

TEST(TraceCapture, TracedPingPongTimingIsBitIdenticalToUntraced) {
  const auto cell = ping_pong_cell();
  const auto untraced = eval::run_cell(cell);
  const auto traced = eval::run_cell_traced(cell);
  ASSERT_EQ(untraced.status, eval::CellStatus::Ok);
  EXPECT_EQ(traced.result, untraced);  // exact: capture must not perturb the sim
  EXPECT_FALSE(traced.records.empty());
  EXPECT_EQ(traced.stats.dropped, 0u);
  EXPECT_EQ(traced.stats.emitted, traced.records.size());
}

TEST(TraceCapture, PingPongBreakdownReconcilesWithMakespan) {
  const auto traced = eval::run_cell_traced(ping_pong_cell());
  ASSERT_EQ(traced.result.status, eval::CellStatus::Ok);
  const std::int64_t makespan = trace::makespan_ns(traced.records);
  EXPECT_GT(makespan, 0);
  // The traced stream's horizon matches the cell's reported time: the last
  // traced occurrence is the final recv completing the ping-pong.
  EXPECT_EQ(static_cast<double>(makespan) * 1e-6, traced.result.tpl_ms);

  // Each rank's categories plus idle partition the makespan exactly.
  const auto breakdown = trace::blocking_breakdown(traced.records);
  ASSERT_EQ(breakdown.size(), 2u);
  for (const auto& b : breakdown) {
    EXPECT_EQ(b.compute_ns + b.send_ns + b.recv_wait_ns + b.unpack_ns + b.other_ns,
              makespan)
        << "rank " << b.rank;
    EXPECT_EQ(b.retransmits, 0);
    EXPECT_EQ(b.drops_seen, 0);
  }
  EXPECT_EQ(breakdown[0].sends, breakdown[1].sends);  // symmetric ping-pong
  EXPECT_EQ(breakdown[0].recvs, breakdown[1].recvs);

  // And the export round-trips through the validator.
  const auto res =
      trace::validate_perfetto_json(trace::export_perfetto_json(traced.records));
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(TraceCapture, RingCriticalPathCoversMostOfTheMakespan) {
  eval::TplCell cell;
  cell.primitive = eval::Primitive::Ring;
  cell.platform = host::PlatformId::SunEthernet;
  cell.tool = mp::ToolKind::P4;
  cell.bytes = 1024;
  cell.procs = 4;
  const auto traced = eval::run_cell_traced(eval::CellSpec::of(cell));
  ASSERT_EQ(traced.result.status, eval::CellStatus::Ok);
  const auto cp = trace::critical_path(traced.records);
  EXPECT_EQ(cp.makespan_ns, trace::makespan_ns(traced.records));
  EXPECT_GE(cp.coverage(), 0.90);  // acceptance floor from the design brief
  EXPECT_LE(cp.covered_ns, cp.makespan_ns);  // segments are disjoint
  // Chronological and non-overlapping.
  for (std::size_t i = 1; i < cp.segments.size(); ++i) {
    EXPECT_GE(cp.segments[i].t0_ns, cp.segments[i - 1].t1_ns) << "segment " << i;
  }
}

TEST(TraceCapture, SchedCellExportsOneJobSlicePerJob) {
  eval::SchedCell cell;
  cell.njobs = 6;
  const auto traced = eval::run_cell_traced(eval::CellSpec::of(cell));
  ASSERT_EQ(traced.result.status, eval::CellStatus::Ok) << traced.result.error;
  const std::string json = trace::export_perfetto_json(traced.records);
  std::string error;
  EXPECT_TRUE(trace::validate_json(json, &error)) << error;
  const auto res = trace::validate_perfetto_json(json);
  EXPECT_TRUE(res.ok) << res.error;

  // Each job is one complete ("X") slice named "job <id>".
  std::map<std::string, int> slices;  // job id -> slices
  const std::string key = "\"ph\":\"X\",\"name\":\"job ";
  for (auto at = json.find(key); at != std::string::npos; at = json.find(key, at + 1)) {
    const auto id = at + key.size();
    ++slices[json.substr(id, json.find('"', id) - id)];
  }
  EXPECT_EQ(slices.size(), 6u);
  for (const auto& [id, count] : slices) EXPECT_EQ(count, 1) << "job " << id;
}

TEST(TraceCapture, SchedCellMessageIdsAreDistinctAcrossJobs) {
  // Every job of a scheduler cell runs its own mp::Runtime inside the one
  // capture; message ids must still name one message each, or the flow
  // arrows and the id-keyed analyses join messages of different jobs.
  eval::SchedCell cell;
  cell.njobs = 6;
  const auto traced = eval::run_cell_traced(eval::CellSpec::of(cell));
  ASSERT_EQ(traced.result.status, eval::CellStatus::Ok) << traced.result.error;
  std::map<std::uint64_t, int> sends;  // id -> SendBegin records
  for (const auto& r : traced.records) {
    if (r.kind == trace::Kind::SendBegin) ++sends[r.id];
  }
  EXPECT_FALSE(sends.empty());
  for (const auto& [id, count] : sends) EXPECT_EQ(count, 1) << "message id " << id;
}

TEST(TraceCapture, SchedCellRecordsNameClusterNodes) {
  // Each job runs on its own slice [base_node, base_node + ranks) of the
  // cluster. Its mp records must name those nodes, not job-local ranks, or
  // rank k of every job lands on one trace track.
  eval::SchedCell cell;
  cell.nodes = 16;
  cell.njobs = 3;  // every job narrower than the cluster, some above node 0
  cell.faults = pdc::fault::FaultPlan::uniform(0.05);  // transport records too
  const auto traced = eval::run_cell_traced(eval::CellSpec::of(cell));
  ASSERT_EQ(traced.result.status, eval::CellStatus::Ok) << traced.result.error;

  std::set<int> placed;  // union of the jobs' node slices
  for (const auto& job : eval::run_sched_cell(cell).schedule.jobs) {
    for (int n = job.base_node; job.base_node >= 0 && n < job.base_node + job.ranks; ++n) {
      placed.insert(n);
    }
  }
  std::set<int> mp_ranks;
  std::set<int> transport_ranks;
  for (const auto& r : traced.records) {
    if (trace::category(r.kind) == trace::kCatMp) mp_ranks.insert(r.rank);
    if (trace::category(r.kind) == trace::kCatTransport) transport_ranks.insert(r.rank);
  }
  EXPECT_EQ(mp_ranks, placed);
  ASSERT_FALSE(transport_ranks.empty());
  EXPECT_TRUE(std::includes(placed.begin(), placed.end(), transport_ranks.begin(),
                            transport_ranks.end()));
}

// -- golden cells ------------------------------------------------------------
//
// Two fixed (tool, app) cells with every analysis result pinned to exact
// integers. The sim is deterministic, so any drift here means a probe moved
// or an analysis changed -- update deliberately, never casually.

TEST(TraceCaptureGolden, P4JpegOnFddi) {
  eval::AppCell cell;
  cell.platform = host::PlatformId::AlphaFddi;
  cell.tool = mp::ToolKind::P4;
  cell.app = eval::AppKind::Jpeg;
  cell.procs = 4;
  const auto traced = eval::run_cell_traced(eval::CellSpec::of(cell));
  EXPECT_EQ(traced.result.app_s, eval::app_cell_s(cell));  // capture-neutral

  const std::int64_t makespan = trace::makespan_ns(traced.records);
  const auto m = trace::comm_matrix(traced.records);
  const auto cp = trace::critical_path(traced.records);
  const auto b = trace::blocking_breakdown(traced.records);
  ASSERT_EQ(b.size(), 4u);

  EXPECT_EQ(traced.records.size(), 46u);
  EXPECT_EQ(makespan, 1'073'522'641);  // == app_cell_s to the ns
  EXPECT_EQ(m.total_msgs(), 6);        // scatter 3 strips + gather 3 strips
  EXPECT_EQ(m.total_bytes(), 234'592);
  EXPECT_EQ(cp.covered_ns, 1'073'522'641);  // chain explains the whole run
  EXPECT_EQ(b[0].sends, 3);
  EXPECT_EQ(b[1].recv_wait_ns, 9'936'720);
}

TEST(TraceCaptureGolden, ExpressPsrsOnSp1Switch) {
  eval::AppCell cell;
  cell.platform = host::PlatformId::Sp1Switch;
  cell.tool = mp::ToolKind::Express;
  cell.app = eval::AppKind::Psrs;
  cell.procs = 4;
  const auto traced = eval::run_cell_traced(eval::CellSpec::of(cell));
  EXPECT_EQ(traced.result.app_s, eval::app_cell_s(cell));

  const std::int64_t makespan = trace::makespan_ns(traced.records);
  const auto m = trace::comm_matrix(traced.records);
  const auto cp = trace::critical_path(traced.records);

  EXPECT_EQ(traced.records.size(), 155u);
  EXPECT_EQ(makespan, 466'196'561);
  EXPECT_EQ(m.total_msgs(), 18);
  EXPECT_EQ(m.total_bytes(), 1'498'812);
  EXPECT_EQ(cp.covered_ns, 466'022'321);  // 99.96% of the makespan
}

// -- the message path's record stream ----------------------------------------
//
// Four TPL cells that between them take every send route (direct, the
// Express tx engine, the PVM daemons) and the reliable transport, pinned by
// record count and the FNV-1a of their CSV export. Event dispatch is
// captured too, so the pins move if a message's path schedules one event
// more, one fewer, or at another time or order.

namespace {

struct StreamPin {
  std::size_t records{0};
  std::uint64_t csv_fnv{0};
};

StreamPin message_path_pin(const eval::TplCell& cell) {
  eval::TraceCapture opt;
  opt.mask = trace::kDefaultMask | trace::kCatSim;
  const auto traced = eval::run_cell_traced(eval::CellSpec::of(cell), opt);
  EXPECT_EQ(traced.result.status, eval::CellStatus::Ok) << traced.result.error;
  EXPECT_EQ(traced.stats.dropped, 0u);
  const std::string csv = trace::export_csv(traced.records);
  return {traced.records.size(),
          pdc::test::fnv1a(pdc::test::kFnvBasis, std::as_bytes(std::span(csv)))};
}

}  // namespace

TEST(TraceCaptureGolden, FaultedP4RingStream) {
  eval::TplCell cell;  // as the pdctrace_faulted_ring_export ctest
  cell.primitive = eval::Primitive::Ring;
  cell.tool = mp::ToolKind::P4;
  cell.bytes = 4096;
  cell.procs = 4;
  cell.faults = pdc::fault::FaultPlan::uniform(0.05, 0.01, 0.02, 0.0,
                                               pdc::sim::microseconds(500), 7);
  const StreamPin pin = message_path_pin(cell);
  EXPECT_EQ(pin.records, 436u);
  EXPECT_EQ(pin.csv_fnv, 0xb6b7928653c37919ULL) << std::hex << pin.csv_fnv;
}

TEST(TraceCaptureGolden, ExpressGlobalSumStream) {
  eval::TplCell cell;
  cell.primitive = eval::Primitive::GlobalSum;
  cell.platform = host::PlatformId::Sp1Switch;
  cell.tool = mp::ToolKind::Express;
  cell.procs = 8;
  cell.global_sum_ints = 256;
  const StreamPin pin = message_path_pin(cell);
  EXPECT_EQ(pin.records, 480u);
  EXPECT_EQ(pin.csv_fnv, 0x5043ac243b7af5ceULL) << std::hex << pin.csv_fnv;
}

TEST(TraceCaptureGolden, PvmDaemonBroadcastStream) {
  eval::TplCell cell;  // sequential from the root, every hop through the pvmds
  cell.primitive = eval::Primitive::Broadcast;
  cell.tool = mp::ToolKind::Pvm;
  cell.bytes = 4096;
  cell.procs = 4;
  const StreamPin pin = message_path_pin(cell);
  EXPECT_EQ(pin.records, 60u);
  EXPECT_EQ(pin.csv_fnv, 0x1ffb3ea625a0e133ULL) << std::hex << pin.csv_fnv;
}

TEST(TraceCaptureGolden, P4SendRecvStream) {
  eval::TplCell cell;
  cell.primitive = eval::Primitive::SendRecv;
  cell.tool = mp::ToolKind::P4;
  cell.bytes = 4096;
  const StreamPin pin = message_path_pin(cell);
  EXPECT_EQ(pin.records, 32u);
  EXPECT_EQ(pin.csv_fnv, 0xf94dc698dc38918eULL) << std::hex << pin.csv_fnv;
}

// -- determinism across sweep workers ----------------------------------------

TEST(TraceCapture, StreamsAreBitIdenticalAcrossThreadCounts) {
  std::vector<eval::CellSpec> cells;
  for (auto tool : {mp::ToolKind::P4, mp::ToolKind::Pvm, mp::ToolKind::Express}) {
    for (std::int64_t bytes : {1, 4096}) {
      eval::TplCell c;
      c.primitive = eval::Primitive::SendRecv;
      c.platform = host::PlatformId::SunEthernet;
      c.tool = tool;
      c.bytes = bytes;
      c.procs = 2;
      cells.push_back(eval::CellSpec::of(c));
    }
  }

  auto run = [&](unsigned threads) {
    std::vector<eval::TracedCell> out(cells.size());
    eval::parallel_for_index(cells.size(), threads,
                             [&](std::size_t i) { out[i] = eval::run_cell_traced(cells[i]); });
    return out;
  };
  const auto serial = run(1);
  for (const unsigned threads : {2u, 8u}) {
    const auto fanned = run(threads);
    ASSERT_EQ(fanned.size(), serial.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(fanned[i].result, serial[i].result) << "cell " << i << " @" << threads;
      EXPECT_EQ(fanned[i].stats, serial[i].stats) << "cell " << i << " @" << threads;
      ASSERT_EQ(fanned[i].records.size(), serial[i].records.size())
          << "cell " << i << " @" << threads;
      for (std::size_t r = 0; r < serial[i].records.size(); ++r) {
        ASSERT_EQ(fanned[i].records[r], serial[i].records[r])
            << "cell " << i << " record " << r << " @" << threads;
      }
    }
  }
}

TEST(TraceCapture, TinyRingSaturatesAndKeepsNewestWindow) {
  eval::TraceCapture opt;
  opt.capacity = 16;
  eval::TplCell cell;
  cell.primitive = eval::Primitive::Ring;
  cell.bytes = 1024;
  cell.procs = 4;
  const eval::CellSpec spec = eval::CellSpec::of(cell);
  const auto traced = eval::run_cell_traced(spec, opt);
  ASSERT_EQ(traced.result.status, eval::CellStatus::Ok);
  EXPECT_EQ(traced.capacity, 16u);
  EXPECT_EQ(traced.records.size(), 16u);
  EXPECT_GT(traced.stats.dropped, 0u);
  EXPECT_EQ(traced.stats.emitted, traced.stats.dropped + 16u);
  // Flight-recorder semantics: the surviving window is the newest records,
  // still in chronological order.
  for (std::size_t i = 1; i < traced.records.size(); ++i) {
    EXPECT_GE(traced.records[i].t_ns, traced.records[i - 1].t_ns);
  }

  // The sink rounds the requested capacity up to a power of two, and the
  // traced result reports the ring it actually allocated.
  opt.capacity = 1000;
  EXPECT_EQ(eval::run_cell_traced(spec, opt).capacity, 1024u);
}
