// pdceval -- trace subsystem unit tests: sink ring mechanics, analyses over
// hand-built record streams, exporters and the JSON shape validator. They
// feed records into the Sink directly, so they run no simulation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/sink.hpp"

namespace trace = pdc::trace;

namespace {

trace::Record rec(trace::Kind kind, std::int64_t t, int rank) {
  trace::Record r;
  r.kind = kind;
  r.t_ns = t;
  r.rank = static_cast<std::int16_t>(rank);
  return r;
}

}  // namespace

// -- Sink --------------------------------------------------------------------

TEST(TraceSink, CapacityRoundsUpToPowerOfTwo) {
  trace::Sink s(5);
  EXPECT_EQ(s.capacity(), 8u);
  trace::Sink s2(1024);
  EXPECT_EQ(s2.capacity(), 1024u);
}

TEST(TraceSink, WraparoundKeepsMostRecentInOrderAndCountsDrops) {
  trace::Sink s(4, trace::kAllMask);
  for (int i = 0; i < 7; ++i) s.emit(rec(trace::Kind::Compute, i, 0));
  EXPECT_EQ(s.stats().emitted, 7u);
  EXPECT_EQ(s.stats().dropped, 3u);  // flight-recorder mode: oldest overwritten
  EXPECT_EQ(s.size(), 4u);
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(snap[static_cast<std::size_t>(i)].t_ns, 3 + i);
}

TEST(TraceSink, SaturationAtTinyCapacityReportsDrops) {
  trace::Sink s(1, trace::kAllMask);
  ASSERT_EQ(s.capacity(), 1u);
  for (int i = 0; i < 100; ++i) s.emit(rec(trace::Kind::Compute, i, 0));
  EXPECT_EQ(s.stats().emitted, 100u);
  EXPECT_EQ(s.stats().dropped, 99u);
  const auto snap = s.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].t_ns, 99);  // the survivor is the newest record
}

TEST(TraceSink, CategoryMaskFiltersAtEmit) {
  trace::Sink s(16, trace::kCatMp);  // Mp only
  s.emit(rec(trace::Kind::Compute, 1, 0));        // Mp: kept
  s.emit(rec(trace::Kind::Frame, 2, 0));          // Net: filtered
  s.emit(rec(trace::Kind::Retransmit, 3, 0));     // Transport: filtered
  s.emit(rec(trace::Kind::EventDispatch, 4, 0));  // Sim: filtered
  EXPECT_EQ(s.stats().emitted, 1u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(TraceSink, DefaultMaskExcludesSimAndHostLanes) {
  trace::Sink s(16);  // kDefaultMask
  s.emit(rec(trace::Kind::EventDispatch, 1, 0));  // per-event firehose: opt-in
  s.emit(rec(trace::Kind::HostWork, 0, 0));       // wall clock: opt-in
  s.emit(rec(trace::Kind::SendBegin, 2, 0));
  s.emit(rec(trace::Kind::Frame, 3, 0));
  s.emit(rec(trace::Kind::Retransmit, 4, 0));
  EXPECT_EQ(s.size(), 3u);
}

TEST(TraceSink, ClearKeepsCapacityAndMask) {
  trace::Sink s(8, trace::kAllMask);
  for (int i = 0; i < 20; ++i) s.emit(rec(trace::Kind::Compute, i, 0));
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.stats().emitted, 0u);
  EXPECT_EQ(s.capacity(), 8u);
  s.emit(rec(trace::Kind::Compute, 0, 0));
  EXPECT_EQ(s.size(), 1u);
}

TEST(TraceSink, ScopedCaptureInstallsAndRestoresNested) {
  EXPECT_FALSE(trace::active());
  trace::emit(rec(trace::Kind::Compute, 0, 0));  // no sink: silently ignored
  trace::Sink outer(16, trace::kAllMask);
  trace::Sink inner(16, trace::kAllMask);
  {
    const trace::ScopedCapture a(outer);
    EXPECT_EQ(trace::current(), &outer);
    {
      const trace::ScopedCapture b(inner);
      EXPECT_EQ(trace::current(), &inner);
      trace::emit(rec(trace::Kind::Compute, 1, 0));
    }
    EXPECT_EQ(trace::current(), &outer);
    trace::emit(rec(trace::Kind::Compute, 2, 0));
  }
  EXPECT_FALSE(trace::active());
  EXPECT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer.size(), 1u);
}

// -- analyses over a hand-built 3-rank DAG -----------------------------------
//
// Rank 0 computes then sends msg 1 to rank 1; rank 1 receives it, computes,
// and sends msg 2 to rank 2; rank 2 was waiting the whole time. The longest
// recv-after-send chain therefore spans all three ranks and covers the full
// makespan (800 ns) exactly.
namespace {

std::vector<trace::Record> three_rank_dag() {
  using K = trace::Kind;
  std::vector<trace::Record> rs;
  auto add = [&](K kind, std::int64_t t, int rank, int peer, std::uint64_t id,
                 std::int64_t bytes, std::int64_t aux0, std::int64_t aux1) {
    trace::Record r;
    r.kind = kind;
    r.t_ns = t;
    r.rank = static_cast<std::int16_t>(rank);
    r.peer = static_cast<std::int16_t>(peer);
    r.id = id;
    r.bytes = bytes;
    r.aux0 = aux0;
    r.aux1 = aux1;
    r.tag = 7;
    rs.push_back(r);
  };
  add(K::Compute, 0, 0, -1, 0, 0, /*duration*/ 100, 0);
  add(K::SendBegin, 100, 0, 1, 1, 64, 0, 0);
  add(K::SendEnd, 200, 0, 1, 1, 64, 0, /*begin*/ 100);
  add(K::MsgWire, 200, 0, 1, 1, 64, /*arrival*/ 300, /*attempt*/ 1);
  add(K::Frame, 200, 0, 1, 0, 80, /*svc start*/ 210, /*svc end*/ 290);
  add(K::RecvEnd, 350, 1, 0, 1, 64, /*match*/ 320, /*begin*/ 50);
  add(K::Compute, 350, 1, -1, 0, 0, 150, 0);
  add(K::SendBegin, 500, 1, 2, 2, 64, 0, 0);
  add(K::SendEnd, 600, 1, 2, 2, 64, 0, 500);
  add(K::MsgWire, 600, 1, 2, 2, 64, 700, 1);
  add(K::Frame, 600, 1, 2, 0, 90, 600, 690);
  add(K::RecvEnd, 800, 2, 1, 2, 64, 750, 0);
  return rs;
}

}  // namespace

TEST(TraceAnalyze, MakespanIsLastTracedOccurrence) {
  EXPECT_EQ(trace::makespan_ns(three_rank_dag()), 800);
  EXPECT_EQ(trace::makespan_ns({}), 0);
}

TEST(TraceAnalyze, CriticalPathOnKnownDagCoversFullMakespan) {
  const auto records = three_rank_dag();
  const auto cp = trace::critical_path(records);
  EXPECT_EQ(cp.makespan_ns, 800);
  EXPECT_EQ(cp.covered_ns, 800);  // chain explains the entire run
  EXPECT_DOUBLE_EQ(cp.coverage(), 1.0);
  EXPECT_EQ(cp.compute_ns, 250);  // 100 on rank 0 + 150 on rank 1
  EXPECT_EQ(cp.wire_ns, 200);     // two 100 ns wire hops
  EXPECT_EQ(cp.overhead_ns, 350);

  // Chronological, disjoint, alternating through the message chain.
  ASSERT_EQ(cp.segments.size(), 10u);
  using SK = trace::PathSegment::Kind;
  const SK expect_kinds[] = {SK::Compute,  SK::Overhead, SK::Wire,    SK::Overhead,
                             SK::Overhead, SK::Compute,  SK::Overhead, SK::Wire,
                             SK::Overhead, SK::Overhead};
  const int expect_rank[] = {0, 0, 0, 1, 1, 1, 1, 1, 2, 2};
  std::int64_t prev_end = 0;
  for (std::size_t i = 0; i < cp.segments.size(); ++i) {
    EXPECT_EQ(cp.segments[i].kind, expect_kinds[i]) << "segment " << i;
    EXPECT_EQ(cp.segments[i].rank, expect_rank[i]) << "segment " << i;
    EXPECT_EQ(cp.segments[i].t0_ns, prev_end) << "segment " << i;  // gapless here
    prev_end = cp.segments[i].t1_ns;
  }
  EXPECT_EQ(prev_end, 800);

  const auto top = cp.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].duration_ns(), top[1].duration_ns());
  EXPECT_GE(top[1].duration_ns(), top[2].duration_ns());
  EXPECT_EQ(top[0].duration_ns(), 150);  // rank 1's compute span is the longest
}

TEST(TraceAnalyze, BlockingBreakdownAccountsPerRank) {
  const auto b = trace::blocking_breakdown(three_rank_dag());
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].compute_ns, 100);
  EXPECT_EQ(b[0].send_ns, 100);
  EXPECT_EQ(b[0].sends, 1);
  EXPECT_EQ(b[0].recvs, 0);
  EXPECT_EQ(b[1].compute_ns, 150);
  EXPECT_EQ(b[1].send_ns, 100);
  EXPECT_EQ(b[1].recv_wait_ns, 270);  // posted at 50, matched at 320
  EXPECT_EQ(b[1].unpack_ns, 30);
  EXPECT_EQ(b[1].queue_ns, 0);   // rank 1's frame started service immediately
  EXPECT_EQ(b[1].wire_ns, 90);
  EXPECT_EQ(b[2].recv_wait_ns, 750);
  EXPECT_EQ(b[2].unpack_ns, 50);
  EXPECT_EQ(b[2].other_ns, 0);  // 750 + 50 == makespan
  EXPECT_EQ(b[0].queue_ns, 10);  // frame enqueued at 200, serviced at 210
}

TEST(TraceAnalyze, CommMatrixSumsBytesAndCounts) {
  const auto m = trace::comm_matrix(three_rank_dag());
  ASSERT_EQ(m.p, 3);
  EXPECT_EQ(m.bytes_at(0, 1), 64);
  EXPECT_EQ(m.bytes_at(1, 2), 64);
  EXPECT_EQ(m.bytes_at(0, 2), 0);
  EXPECT_EQ(m.msgs_at(0, 1), 1);
  EXPECT_EQ(m.total_bytes(), 128);
  EXPECT_EQ(m.total_msgs(), 2);
}

TEST(TraceAnalyze, LinkUtilizationPerDirectedLink) {
  const auto u = trace::link_utilization(three_rank_dag(), 8);
  EXPECT_EQ(u.span_ns, 800);
  ASSERT_EQ(u.links.size(), 2u);  // 0->1 and 1->2, ordered
  EXPECT_EQ(u.links[0].src, 0);
  EXPECT_EQ(u.links[0].dst, 1);
  EXPECT_EQ(u.links[0].busy_ns, 80);
  EXPECT_EQ(u.links[0].queue_ns, 10);
  EXPECT_EQ(u.links[0].frames, 1);
  EXPECT_EQ(u.links[0].wire_bytes, 80);
  EXPECT_EQ(u.links[1].busy_ns, 90);
  EXPECT_DOUBLE_EQ(u.utilization(u.links[0]), 0.1);
  // Timeline buckets sum to the busy total.
  std::int64_t bucket_sum = 0;
  for (auto v : u.links[0].timeline) bucket_sum += v;
  EXPECT_EQ(bucket_sum, u.links[0].busy_ns);
}

TEST(TraceAnalyze, RetransmitAndDropCountsLandOnTheRightRank) {
  auto records = three_rank_dag();
  trace::Record r;
  r.kind = trace::Kind::Retransmit;
  r.t_ns = 400;
  r.rank = 0;
  r.peer = 1;
  records.push_back(r);
  r.kind = trace::Kind::CorruptReject;
  r.rank = 1;
  r.peer = 0;
  records.push_back(r);
  const auto b = trace::blocking_breakdown(records);
  EXPECT_EQ(b[0].retransmits, 1);
  EXPECT_EQ(b[1].corrupt_rejected, 1);
  EXPECT_EQ(b[2].retransmits, 0);
}

TEST(TraceAnalyze, CriticalPathIsEmptyOnEmptyStream) {
  const auto cp = trace::critical_path({});
  EXPECT_EQ(cp.makespan_ns, 0);
  EXPECT_TRUE(cp.segments.empty());
  EXPECT_DOUBLE_EQ(cp.coverage(), 0.0);
}

TEST(TraceAnalyze, TextReportMentionsEverySection) {
  const std::string report = trace::text_report(three_rank_dag());
  EXPECT_NE(report.find("blocking breakdown"), std::string::npos);
  EXPECT_NE(report.find("communication matrix"), std::string::npos);
  EXPECT_NE(report.find("link utilisation"), std::string::npos);
  EXPECT_NE(report.find("critical path"), std::string::npos);
  EXPECT_NE(report.find("timeline"), std::string::npos);
}

// -- exporters ---------------------------------------------------------------

TEST(TraceExport, PerfettoJsonValidatesAndPairsFlows) {
  const std::string json = trace::export_perfetto_json(three_rank_dag());
  const auto res = trace::validate_perfetto_json(json);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.events, 0u);
  EXPECT_EQ(res.flows, 4u);  // two messages, an "s" and an "f" each
}

TEST(TraceExport, EmptyStreamStillExportsValidJson) {
  const std::string json = trace::export_perfetto_json({});
  const auto res = trace::validate_perfetto_json(json);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(TraceExport, CsvHasHeaderPlusOneRowPerRecord) {
  const auto records = three_rank_dag();
  const std::string csv = trace::export_csv(records);
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, records.size() + 1);
  EXPECT_EQ(csv.rfind("kind,t_ns,rank,peer,tag,bytes,id,aux0,aux1\n", 0), 0u);
  EXPECT_NE(csv.find("send_begin,100,0,1,7,64,1,0,0"), std::string::npos);
}

TEST(TraceExport, ValidatorRejectsMalformedInput) {
  EXPECT_FALSE(trace::validate_perfetto_json("").ok);
  EXPECT_FALSE(trace::validate_perfetto_json("{").ok);
  EXPECT_FALSE(trace::validate_perfetto_json("[]").ok);                  // not an object
  EXPECT_FALSE(trace::validate_perfetto_json("{\"a\":1}").ok);           // no traceEvents
  EXPECT_FALSE(trace::validate_perfetto_json("{\"traceEvents\":1}").ok);  // wrong type
  // Slice without ts/dur.
  EXPECT_FALSE(trace::validate_perfetto_json("{\"traceEvents\":[{\"ph\":\"X\"}]}").ok);
  // Flow start with no matching finish.
  EXPECT_FALSE(trace::validate_perfetto_json(
                   "{\"traceEvents\":[{\"ph\":\"s\",\"ts\":1,\"id\":9}]}")
                   .ok);
  // Trailing garbage.
  EXPECT_FALSE(trace::validate_perfetto_json("{\"traceEvents\":[]} x").ok);
  // Minimal valid shapes pass.
  EXPECT_TRUE(trace::validate_perfetto_json("{\"traceEvents\":[]}").ok);
  EXPECT_TRUE(trace::validate_perfetto_json(
                  "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"process_name\"}]}")
                  .ok);
}

TEST(TraceRecord, CategoryCoversEveryKindAndStaysOneCacheLine) {
  static_assert(sizeof(trace::Record) <= 56);
  EXPECT_EQ(trace::category(trace::Kind::SendBegin), trace::kCatMp);
  EXPECT_EQ(trace::category(trace::Kind::Frame), trace::kCatNet);
  EXPECT_EQ(trace::category(trace::Kind::DupDiscard), trace::kCatTransport);
  EXPECT_EQ(trace::category(trace::Kind::EventDispatch), trace::kCatSim);
  EXPECT_EQ(trace::category(trace::Kind::HostWork), trace::kCatHost);
  EXPECT_STREQ(trace::to_string(trace::Kind::MsgWire), "msg_wire");
}
