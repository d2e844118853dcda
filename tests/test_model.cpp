// Performance-model layer tests: lattice fitting (recovery, determinism,
// the two-term collective form), skeleton composition algebra, and the
// cross-validation harness with its EXPERIMENTS.md error gates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/crossval.hpp"
#include "model/model.hpp"
#include "model/pattern_sim.hpp"
#include "model/skeleton.hpp"
#include "trace/export.hpp"

namespace pdc::model {
namespace {

using host::PlatformId;
using mp::ToolKind;

// -- hypothesis lattice -----------------------------------------------------

TEST(Lattice, CanonicalOrderAndSize) {
  const auto& l = hypothesis_lattice();
  EXPECT_EQ(l.size(), 105u);  // 7 proc terms x 5 N exponents x 3 log exponents
  EXPECT_TRUE(l.front() == (Hypothesis{0.0, 0, ProcTerm::One}));
  for (std::size_t i = 0; i < l.size(); ++i) {
    for (std::size_t j = i + 1; j < l.size(); ++j) {
      EXPECT_FALSE(l[i] == l[j]) << i << " vs " << j;
    }
  }
}

TEST(Lattice, ProcTermValuesAndClamps) {
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::One, 64.0), 1.0);
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::P, 64.0), 64.0);
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::LogP, 8.0), 3.0);
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::SqrtP, 16.0), 4.0);
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::PLogP, 4.0), 8.0);
  // The staircase: exact at powers of two, ceil in between.
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::CeilLogP, 4.0), 2.0);
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::CeilLogP, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::CeilLogP, 8.0), 3.0);
  // Fan-out count, clamped away from 0 so log-fits stay finite.
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::PMinus1, 9.0), 8.0);
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::PMinus1, 1.0), 1.0);
  // 1-rank / 0-byte clamps never zero a term or produce -inf.
  EXPECT_DOUBLE_EQ(proc_term_value(ProcTerm::LogP, 1.0), 1.0);
  const Hypothesis h{1.0, 2, ProcTerm::LogP};
  EXPECT_GT(h.basis(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ((Hypothesis{0.0, 1, ProcTerm::One}.size_basis(0.0)), 1.0);
}

TEST(Lattice, OpTermNeedsBothProcAndSizeFactors) {
  EXPECT_FALSE((Hypothesis{0.0, 0, ProcTerm::One}.has_op_term()));
  EXPECT_FALSE((Hypothesis{1.0, 1, ProcTerm::One}.has_op_term()));
  EXPECT_FALSE((Hypothesis{0.0, 0, ProcTerm::P}.has_op_term()));  // f == g column
  EXPECT_TRUE((Hypothesis{1.0, 0, ProcTerm::P}.has_op_term()));
  EXPECT_TRUE((Hypothesis{0.0, 1, ProcTerm::CeilLogP}.has_op_term()));
}

// -- fitting ----------------------------------------------------------------

[[nodiscard]] std::vector<Observation> synth_grid(double c0, double c1, double c2,
                                                  const Hypothesis& h) {
  std::vector<Observation> obs;
  for (double n : {256.0, 1024.0, 3072.0, 4096.0, 16384.0}) {
    for (double p : {2.0, 3.0, 4.0, 6.0, 8.0, 16.0}) {
      obs.push_back({n, p,
                     c0 + c1 * proc_term_value(h.proc, p) + c2 * h.basis(n, p)});
    }
  }
  return obs;
}

TEST(Fit, RecoversSingleTermModelExactly) {
  const Hypothesis truth{1.0, 0, ProcTerm::LogP};
  const auto obs = synth_grid(0.5, 0.0, 3e-4, truth);
  const FittedModel m = fit_model(obs);
  EXPECT_TRUE(m.term == truth) << m.to_string();
  EXPECT_NEAR(m.c0, 0.5, 1e-6);
  EXPECT_NEAR(m.c2, 3e-4, 1e-9);
  EXPECT_LT(m.score, 1e-12);
  EXPECT_EQ(m.points, obs.size());
}

TEST(Fit, RecoversTwoTermCollectiveForm) {
  // The classic (alpha + beta N) * steps shape: a per-operation latency
  // and a per-byte cost, both scaled by a linear fan-out.
  const Hypothesis truth{1.0, 0, ProcTerm::PMinus1};
  const auto obs = synth_grid(0.1, 0.05, 2e-5, truth);
  const FittedModel m = fit_model(obs);
  EXPECT_TRUE(m.term == truth) << m.to_string();
  EXPECT_NEAR(m.c1, 0.05, 1e-4);
  EXPECT_NEAR(m.c2, 2e-5, 1e-7);
  EXPECT_LT(m.score, 1e-10);
}

TEST(Fit, StaircaseSeparatedFromSmoothLogByNonPowerOfTwoProcs) {
  const Hypothesis truth{1.0, 0, ProcTerm::CeilLogP};
  const auto obs = synth_grid(0.2, 0.01, 1e-5, truth);
  const FittedModel m = fit_model(obs);
  EXPECT_EQ(m.term.proc, ProcTerm::CeilLogP) << m.to_string();
}

TEST(Fit, ConstantDataSelectsTheConstantHypothesis) {
  std::vector<Observation> obs;
  for (double n : {64.0, 256.0, 1024.0}) {
    for (double p : {2.0, 4.0}) obs.push_back({n, p, 7.25});
  }
  const FittedModel m = fit_model(obs);
  EXPECT_TRUE(m.term == hypothesis_lattice().front()) << m.to_string();
  EXPECT_NEAR(m.c0, 7.25, 1e-9);
  EXPECT_DOUBLE_EQ(m.c1, 0.0);
  EXPECT_DOUBLE_EQ(m.c2, 0.0);
}

TEST(Fit, SingleProcGridDropsTheCollinearOpColumn) {
  // With only P=2 observed, f(P) is collinear with the constant column:
  // the seed must fall back to the two-column system, not blow up.
  std::vector<Observation> obs;
  for (double n : {256.0, 512.0, 1024.0, 2048.0, 4096.0}) {
    obs.push_back({n, 2.0, 0.3 + 4e-4 * n});
  }
  const FittedModel m = fit_model(obs);
  EXPECT_NEAR(m.predict_ms(1024.0, 2.0), 0.3 + 4e-4 * 1024.0, 1e-6);
  EXPECT_LT(m.score, 1e-10);
}

TEST(Fit, RejectsEmptyAndNonPositiveObservations) {
  EXPECT_THROW((void)fit_model({}), std::invalid_argument);
  const std::vector<Observation> bad = {{64.0, 2.0, 1.0}, {128.0, 2.0, 0.0}};
  EXPECT_THROW((void)fit_model(bad), std::invalid_argument);
}

TEST(Fit, BitIdenticalAcrossRepeatedRuns) {
  const auto obs = synth_grid(0.02, 0.004, 1e-6, {1.5, 1, ProcTerm::P});
  const FittedModel a = fit_model(obs);
  const FittedModel b = fit_model(obs);
  EXPECT_EQ(std::memcmp(&a.c0, &b.c0, sizeof a.c0), 0);
  EXPECT_EQ(std::memcmp(&a.c1, &b.c1, sizeof a.c1), 0);
  EXPECT_EQ(std::memcmp(&a.c2, &b.c2, sizeof a.c2), 0);
  EXPECT_EQ(std::memcmp(&a.score, &b.score, sizeof a.score), 0);
  EXPECT_TRUE(a.term == b.term);
  EXPECT_EQ(to_json(a), to_json(b));
}

// -- skeleton algebra -------------------------------------------------------

TEST(Skeleton, SerialSumsAndConstantsCarryTheirValue) {
  const auto s = Skeleton::serial({Skeleton::constant("a", 1.0),
                                   Skeleton::constant("b", 2.5)});
  EXPECT_DOUBLE_EQ(s.cost_ms(0.0, 0.0), 3.5);
}

TEST(Skeleton, PipelineIsFillPlusSlowestStagePerItem) {
  const auto pipe = Skeleton::pipeline({Skeleton::constant("s1", 1.0),
                                        Skeleton::constant("s2", 3.0),
                                        Skeleton::constant("s3", 2.0)},
                                       5);
  EXPECT_DOUBLE_EQ(pipe.cost_ms(0.0, 0.0), 6.0 + 4.0 * 3.0);
}

TEST(Skeleton, MapReduceIsWavesTimesTaskPlusReduce) {
  const auto mr = Skeleton::map_reduce(Skeleton::constant("task", 2.0), 10, 4,
                                       Skeleton::constant("reduce", 5.0));
  EXPECT_DOUBLE_EQ(mr.cost_ms(0.0, 0.0), 3.0 * 2.0 + 5.0);  // ceil(10/4) waves
}

TEST(Skeleton, TaskPoolIsGreedyMakespanFlooredByHead) {
  const std::vector<Skeleton> tasks = {
      Skeleton::constant("t", 5.0), Skeleton::constant("t", 1.0),
      Skeleton::constant("t", 1.0), Skeleton::constant("t", 1.0)};
  const auto fast_head = Skeleton::task_pool(tasks, 2, Skeleton::constant("h", 0.1));
  EXPECT_DOUBLE_EQ(fast_head.cost_ms(0.0, 0.0), 5.0);  // [5] vs [1,1,1]
  const auto slow_head = Skeleton::task_pool(tasks, 2, Skeleton::constant("h", 2.0));
  EXPECT_DOUBLE_EQ(slow_head.cost_ms(0.0, 0.0), 8.0);  // 4 tasks x 2 ms head
}

TEST(Skeleton, OverlapTakesTheSlowestPart) {
  const auto o = Skeleton::overlap({Skeleton::constant("comm", 2.0),
                                    Skeleton::constant("work", 3.0)});
  EXPECT_DOUBLE_EQ(o.cost_ms(0.0, 0.0), 3.0);
}

TEST(Skeleton, ArgsPinAndScaleMultiplies) {
  FittedModel linear;
  linear.c2 = 1.0;
  linear.term = {1.0, 0, ProcTerm::One};
  const auto leaf = Skeleton::primitive("lin", linear);
  EXPECT_DOUBLE_EQ(leaf.cost_ms(100.0, 8.0), 100.0);
  EXPECT_DOUBLE_EQ(leaf.with_args(4.0, std::nullopt).cost_ms(100.0, 8.0), 4.0);
  EXPECT_DOUBLE_EQ(leaf.scaled(0.5).cost_ms(100.0, 8.0), 50.0);
  EXPECT_EQ(leaf.with_args(4.0, 2.0).scaled(0.5).describe(),
            "(scale 0.5 (at n=4 p=2 lin))");
}

TEST(Skeleton, ConstructorsValidate) {
  EXPECT_THROW((void)Skeleton::serial({}), std::invalid_argument);
  EXPECT_THROW((void)Skeleton::overlap({}), std::invalid_argument);
  EXPECT_THROW((void)Skeleton::constant("x", -1.0), std::invalid_argument);
  EXPECT_THROW((void)Skeleton::pipeline({Skeleton::constant("s", 1.0)}, 0),
               std::invalid_argument);
  EXPECT_THROW((void)Skeleton::map_reduce(Skeleton::constant("t", 1.0), 0, 2,
                                          Skeleton::constant("r", 1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)Skeleton::task_pool({Skeleton::constant("t", 1.0)}, 0,
                                         Skeleton::constant("h", 1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)Skeleton::constant("x", 1.0).scaled(-0.5), std::invalid_argument);
}

TEST(Skeleton, PatternSkeletonHonoursBackgroundSendOverlap) {
  PatternLeaves leaves;
  leaves.sendrecv.c2 = 1e-3;  // 1 us per byte round trip
  leaves.sendrecv.term = {1.0, 0, ProcTerm::One};
  const double work = 10.0;
  const auto serial_stage =
      pattern_skeleton(PatternKind::Pipeline, leaves, 4096, 4, 8, 0, work, false);
  const auto overlap_stage =
      pattern_skeleton(PatternKind::Pipeline, leaves, 4096, 4, 8, 0, work, true);
  const double hop = 0.5 * 1e-3 * 4096.0;
  EXPECT_DOUBLE_EQ(serial_stage.cost_ms(4096.0, 4.0), 3.0 * (hop + work) + 7.0 * (hop + work));
  EXPECT_DOUBLE_EQ(overlap_stage.cost_ms(4096.0, 4.0), 3.0 * work + 7.0 * work);
  EXPECT_NE(serial_stage.describe().find("(serial"), std::string::npos);
  EXPECT_NE(overlap_stage.describe().find("(overlap"), std::string::npos);
}

// -- cross-validation harness ----------------------------------------------

TEST(CrossVal, PrimitiveCellMeetsTheErrorGateWithExtrapolation) {
  TrainGrid train;
  train.sizes = {256, 512, 1024, 2048, 4096, 8192};
  const std::vector<HoldoutPoint> holdout = {{768, 2}, {3072, 2}, {16384, 2}};
  const CellReport r = cross_validate_primitive(
      ToolKind::P4, PlatformId::ClusterFlat, eval::Primitive::SendRecv, train, holdout,
      direct_measure(1));
  ASSERT_EQ(r.points.size(), 3u);
  EXPECT_FALSE(r.points[0].extrapolated);
  EXPECT_TRUE(r.points[2].extrapolated);  // 16384 beyond the 8192 training max
  EXPECT_LE(r.median_rel_err, 0.15);
  for (const PointReport& p : r.points) EXPECT_GT(p.measured_ms, 0.0);
}

TEST(CrossVal, PatternCellMeetsTheComposedGate) {
  PatternConfig cfg;
  cfg.kind = PatternKind::Pipeline;
  cfg.bytes = 4096;
  cfg.procs = {4};
  cfg.tasks = 8;
  cfg.flops = 1.0e6;
  cfg.train.sizes = {256, 1024, 4096, 16384};
  const CellReport r = cross_validate_pattern(ToolKind::P4, PlatformId::ClusterFlat,
                                              cfg, direct_measure(1));
  ASSERT_EQ(r.points.size(), 1u);
  EXPECT_LE(r.median_rel_err, 0.25);
  EXPECT_FALSE(r.skeleton.empty());
}

TEST(CrossVal, FitsAreBitIdenticalAcrossSweepThreadCounts) {
  TrainGrid train;
  train.sizes = {512, 1024, 2048, 4096};
  const std::vector<HoldoutPoint> holdout = {{3072, 2}};
  const CellReport a = cross_validate_primitive(
      ToolKind::Express, PlatformId::AlphaFddi, eval::Primitive::SendRecv, train,
      holdout, direct_measure(1));
  const CellReport b = cross_validate_primitive(
      ToolKind::Express, PlatformId::AlphaFddi, eval::Primitive::SendRecv, train,
      holdout, direct_measure(7));
  EXPECT_EQ(to_json(a), to_json(b));
}

TEST(CrossVal, UnsupportedPrimitiveThrows) {
  TrainGrid train;
  train.sizes = {256, 1024};
  // PVM has no global operation; the harness must refuse, not fit garbage.
  EXPECT_THROW((void)cross_validate_primitive(ToolKind::Pvm, PlatformId::ClusterFlat,
                                              eval::Primitive::GlobalSum, train,
                                              {}, direct_measure(1)),
               std::runtime_error);
}

TEST(CrossVal, ErrorCellThrowsWithTheCellsErrorText) {
  TrainGrid train;
  train.sizes = {256, 1024};
  const MeasureTpl failing = [](const std::vector<eval::CellSpec>& cells) {
    std::vector<eval::CellResult> out(cells.size());
    out.back().status = eval::CellStatus::Error;
    out.back().error = "platform has only 8 nodes";
    return out;
  };
  try {
    (void)cross_validate_primitive(ToolKind::P4, PlatformId::ClusterFlat,
                                   eval::Primitive::SendRecv, train, {}, failing);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("platform has only 8 nodes"), std::string::npos)
        << e.what();
  }
}

TEST(CrossVal, PatternSimsMatchDirectInvocation) {
  // The reference simulations the harness validates against are ordinary
  // run_spmd programs: deterministic and positive.
  const double a = pipeline_sim_ms(PlatformId::ClusterFlat, ToolKind::P4, 4, 1024, 8, 0.0);
  const double b = pipeline_sim_ms(PlatformId::ClusterFlat, ToolKind::P4, 4, 1024, 8, 0.0);
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_FALSE(mapreduce_sim_ms(PlatformId::ClusterFlat, ToolKind::Pvm, 4, 1024, 8,
                                256, 0.0)
                   .has_value());
}

// -- the canonical suite -----------------------------------------------------

TEST(ModelSuite, ReportIsByteIdenticalAtEveryWidth) {
  const SuiteReport serial = run_default_suite(direct_measure(1), 1);
  const SuiteReport fanned = run_default_suite(direct_measure(4), 4);
  EXPECT_EQ(to_json(serial), to_json(fanned));
  EXPECT_EQ(serial.cells.size(), 64u);
  // The documented gates (README, EXPERIMENTS.md, CI model-smoke).
  EXPECT_LE(serial.worst_primitive_median(), 0.15);
  EXPECT_LE(serial.worst_pattern_median(), 0.25);
}

TEST(ModelSuite, FailingMeasureRaisesTheLowestIndexCellsError) {
  // Every fat-tree measurement fails, naming its tool; the rest return a
  // synthetic linear time so the suite costs only its pattern simulations.
  const MeasureTpl fattree_fails = [](const std::vector<eval::CellSpec>& cells) {
    std::vector<eval::CellResult> out(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const eval::TplCell& c = cells[i].tpl;
      if (c.platform == PlatformId::ClusterFatTree) {
        out[i].status = eval::CellStatus::Error;
        out[i].error = std::string("no fat tree for ") + mp::to_string(c.tool);
      } else {
        out[i].tpl_ms = 0.1 + 1e-4 * static_cast<double>(c.bytes + c.global_sum_ints) +
                        0.01 * c.procs;
      }
    }
    return out;
  };
  // Suite order: p4 on ethernet and fddi (3 cells each), on flat, then its
  // fat-tree ping-pong -- the first cell that fails.
  const std::string first = "cross-validate p4/CLUSTER/FatTree/Send/Receive: cell error: "
                            "no fat tree for p4";
  for (const unsigned threads : {1u, 4u}) {
    try {
      (void)run_default_suite(fattree_fails, threads);
      FAIL() << "expected std::runtime_error at width " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), first) << "width " << threads;
    }
  }
}

// -- JSON shapes ------------------------------------------------------------

TEST(ModelJson, ReportsPassTheRecursiveDescentChecker) {
  const auto obs = synth_grid(0.1, 0.02, 1e-5, {1.0, 1, ProcTerm::P});
  std::string err;
  EXPECT_TRUE(trace::validate_json(to_json(fit_model(obs)), &err)) << err;

  TrainGrid train;
  train.sizes = {512, 1024, 2048};
  const std::vector<HoldoutPoint> holdout = {{1536, 2}};
  const CellReport cell = cross_validate_primitive(
      ToolKind::P4, PlatformId::ClusterFlat, eval::Primitive::SendRecv, train, holdout,
      direct_measure(1));
  EXPECT_TRUE(trace::validate_json(to_json(cell), &err)) << err;

  SuiteReport suite;
  suite.cells.push_back(cell);
  EXPECT_TRUE(trace::validate_json(to_json(suite), &err)) << err;

  EXPECT_FALSE(trace::validate_json("{\"unterminated\":", &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace pdc::model
