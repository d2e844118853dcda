#include "model/crossval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "eval/criteria.hpp"
#include "eval/sweep.hpp"
#include "model/pattern_sim.hpp"
#include "mp/profile.hpp"

namespace pdc::model {

namespace {

[[nodiscard]] eval::CellSpec make_cell(mp::ToolKind tool, host::PlatformId platform,
                                       eval::Primitive primitive, std::int64_t size,
                                       int procs) {
  eval::TplCell c;
  c.primitive = primitive;
  c.platform = platform;
  c.tool = tool;
  c.procs = procs;
  if (primitive == eval::Primitive::GlobalSum) {
    c.bytes = 0;
    c.global_sum_ints = size;
  } else {
    c.bytes = size;
  }
  return eval::CellSpec::of(c);
}

[[nodiscard]] std::string cell_label(mp::ToolKind tool, host::PlatformId platform,
                                     const char* what) {
  return std::string(mp::to_string(tool)) + "/" + host::to_string(platform) + "/" + what;
}

/// Median of |errors| with a deterministic definition: sort, take the
/// middle element (odd count) or the mean of the two middles.
[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

void finalize(CellReport& r) {
  std::vector<double> all, extra;
  for (const PointReport& p : r.points) {
    all.push_back(p.rel_err);
    if (p.extrapolated) extra.push_back(p.rel_err);
    r.max_rel_err = std::max(r.max_rel_err, p.rel_err);
  }
  r.median_rel_err = median(std::move(all));
  r.median_extrapolated_err = median(std::move(extra));
}

/// The one place a measured result becomes a value: Ok yields its
/// simulated ms, Unsupported and Error throw.
[[nodiscard]] std::vector<double> measure_or_throw(const MeasureTpl& measure,
                                                   const std::vector<eval::CellSpec>& cells,
                                                   const std::string& label) {
  const auto raw = measure(cells);
  if (raw.size() != cells.size()) {
    throw std::runtime_error("cross-validate " + label + ": measurement batch size mismatch");
  }
  std::vector<double> out;
  out.reserve(raw.size());
  for (const eval::CellResult& r : raw) {
    switch (r.status) {
      case eval::CellStatus::Ok: out.push_back(r.tpl_ms); break;
      case eval::CellStatus::Unsupported:
        throw std::runtime_error("cross-validate " + label +
                                 ": primitive unsupported for this tool");
      case eval::CellStatus::Error:
        throw std::runtime_error("cross-validate " + label + ": cell error: " + r.error);
    }
  }
  return out;
}

/// Fit one primitive from a training grid through `measure`.
[[nodiscard]] FittedModel fit_primitive(mp::ToolKind tool, host::PlatformId platform,
                                        eval::Primitive primitive, const TrainGrid& train,
                                        const MeasureTpl& measure,
                                        const std::string& label) {
  std::vector<eval::CellSpec> cells;
  std::vector<Observation> obs;
  const std::vector<int> procs_axis =
      primitive == eval::Primitive::SendRecv ? std::vector<int>{2} : train.procs;
  for (std::int64_t size : train.sizes) {
    for (int p : procs_axis) {
      cells.push_back(make_cell(tool, platform, primitive, size, p));
      obs.push_back({static_cast<double>(size), static_cast<double>(p), 0.0});
    }
  }
  const auto times = measure_or_throw(measure, cells, label);
  for (std::size_t i = 0; i < obs.size(); ++i) obs[i].t_ms = times[i];
  return fit_model(obs);
}

[[nodiscard]] double rel_err(double predicted, double measured) {
  return measured > 0.0 ? std::abs(predicted - measured) / measured : 0.0;
}

}  // namespace

MeasureTpl direct_measure(unsigned threads) {
  return [threads](const std::vector<eval::CellSpec>& cells) {
    return eval::sweep(cells, threads);
  };
}

CellReport cross_validate_primitive(mp::ToolKind tool, host::PlatformId platform,
                                    eval::Primitive primitive, const TrainGrid& train,
                                    std::span<const HoldoutPoint> holdout,
                                    const MeasureTpl& measure) {
  CellReport r;
  r.label = cell_label(tool, platform, eval::to_string(primitive));
  r.model = fit_primitive(tool, platform, primitive, train, measure, r.label);

  std::int64_t max_size = 0;
  int max_procs = 0;
  for (std::int64_t s : train.sizes) max_size = std::max(max_size, s);
  for (int p : train.procs) max_procs = std::max(max_procs, p);

  std::vector<eval::CellSpec> cells;
  cells.reserve(holdout.size());
  for (const HoldoutPoint& h : holdout) {
    cells.push_back(make_cell(tool, platform, primitive, h.size, h.procs));
  }
  const auto times = measure_or_throw(measure, cells, r.label);
  for (std::size_t i = 0; i < holdout.size(); ++i) {
    PointReport p;
    p.n = static_cast<double>(holdout[i].size);
    p.p = static_cast<double>(holdout[i].procs);
    p.measured_ms = times[i];
    p.predicted_ms = r.model.predict_ms(p.n, p.p);
    p.rel_err = rel_err(p.predicted_ms, p.measured_ms);
    p.extrapolated = holdout[i].size > max_size ||
                     (primitive != eval::Primitive::SendRecv && holdout[i].procs > max_procs);
    r.points.push_back(p);
  }
  finalize(r);
  return r;
}

const char* to_string(PatternKind k) {
  switch (k) {
    case PatternKind::Pipeline: return "pipeline";
    case PatternKind::MapReduce: return "mapreduce";
    case PatternKind::TaskPool: return "taskpool";
  }
  return "?";
}

Skeleton pattern_skeleton(PatternKind kind, const PatternLeaves& leaves,
                          std::int64_t bytes, int procs, int tasks, std::int64_t ints,
                          double work_ms, bool overlap_comm) {
  const double n = static_cast<double>(bytes);
  const Skeleton work = Skeleton::constant("work", work_ms);
  switch (kind) {
    case PatternKind::Pipeline: {
      // procs chained ranks = procs-1 store-and-forward stages; each stage
      // is one one-way message (half the fitted 2-rank round trip)
      // followed by the receiving rank's per-item compute. Tools that send
      // in the background hide the hop behind the compute instead of
      // paying both in sequence.
      const Skeleton hop =
          Skeleton::primitive("pingpong", leaves.sendrecv).with_args(n, 2.0).scaled(0.5);
      const Skeleton stage = overlap_comm ? Skeleton::overlap({hop, work})
                                          : Skeleton::serial({hop, work});
      std::vector<Skeleton> stages(static_cast<std::size_t>(procs - 1), stage);
      return Skeleton::pipeline(std::move(stages), tasks);
    }
    case PatternKind::MapReduce: {
      // Broadcast seeds the data; the map phase is `tasks` concurrent
      // shift-and-compute tasks over `procs` workers (one shift = a
      // quarter of the fitted 4-round ring time); the reduce is a global
      // sum.
      const Skeleton seed =
          Skeleton::primitive("broadcast", leaves.broadcast)
              .with_args(n, static_cast<double>(procs));
      const Skeleton shift = Skeleton::primitive("ring", leaves.ring)
                                 .with_args(n, static_cast<double>(procs))
                                 .scaled(0.25);
      const Skeleton reduce =
          Skeleton::primitive("globalsum", leaves.globalsum)
              .with_args(static_cast<double>(ints), static_cast<double>(procs));
      return Skeleton::serial(
          {seed, Skeleton::map_reduce(Skeleton::serial({shift, work}), tasks, procs,
                                      reduce)});
    }
    case PatternKind::TaskPool: {
      // Every task is one n-byte round trip around the worker's compute;
      // the pool head pays its host half of that round trip per task
      // (dispatch + collect).
      const Skeleton rtt =
          Skeleton::primitive("pingpong", leaves.sendrecv).with_args(n, 2.0);
      std::vector<Skeleton> pool(static_cast<std::size_t>(tasks),
                                 Skeleton::serial({rtt, work}));
      return Skeleton::task_pool(std::move(pool), procs - 1, rtt.scaled(0.5));
    }
  }
  throw std::logic_error("pattern_skeleton: unknown kind");
}

CellReport cross_validate_pattern(mp::ToolKind tool, host::PlatformId platform,
                                  const PatternConfig& config, const MeasureTpl& measure) {
  CellReport r;
  r.label = cell_label(tool, platform, to_string(config.kind));

  PatternLeaves leaves;
  TrainGrid ints_train = config.train;
  switch (config.kind) {
    case PatternKind::Pipeline:
    case PatternKind::TaskPool:
      leaves.sendrecv = fit_primitive(tool, platform, eval::Primitive::SendRecv,
                                      config.train, measure, r.label);
      r.model = leaves.sendrecv;
      break;
    case PatternKind::MapReduce:
      leaves.broadcast = fit_primitive(tool, platform, eval::Primitive::Broadcast,
                                       config.train, measure, r.label);
      leaves.ring = fit_primitive(tool, platform, eval::Primitive::Ring, config.train,
                                  measure, r.label);
      leaves.globalsum = fit_primitive(tool, platform, eval::Primitive::GlobalSum,
                                       ints_train, measure, r.label);
      r.model = leaves.broadcast;
      break;
  }

  // The per-item compute constant: the exact duration compute_flops bills.
  const double work_ms =
      host::platform_spec(platform).cpu.compute(config.flops).millis();

  const bool overlap_comm = mp::tool_profile(tool, platform).send_in_background;

  for (int procs : config.procs) {
    const Skeleton skel = pattern_skeleton(config.kind, leaves, config.bytes, procs,
                                           config.tasks, config.ints, work_ms,
                                           overlap_comm);
    if (r.skeleton.empty()) r.skeleton = skel.describe();
    double measured = 0.0;
    switch (config.kind) {
      case PatternKind::Pipeline:
        measured = pipeline_sim_ms(platform, tool, procs, config.bytes, config.tasks,
                                   config.flops);
        break;
      case PatternKind::MapReduce: {
        const auto m = mapreduce_sim_ms(platform, tool, procs, config.bytes,
                                        config.tasks, config.ints, config.flops);
        if (!m) {
          throw std::runtime_error("cross-validate " + r.label +
                                   ": map-reduce needs a global operation");
        }
        measured = *m;
        break;
      }
      case PatternKind::TaskPool:
        measured = taskpool_sim_ms(platform, tool, procs, config.bytes, config.tasks,
                                   config.flops);
        break;
    }
    PointReport p;
    p.n = static_cast<double>(config.bytes);
    p.p = static_cast<double>(procs);
    p.measured_ms = measured;
    p.predicted_ms = skel.cost_ms(static_cast<double>(config.bytes),
                                  static_cast<double>(procs));
    p.rel_err = rel_err(p.predicted_ms, p.measured_ms);
    int max_train_procs = 0;
    for (int tp : config.train.procs) max_train_procs = std::max(max_train_procs, tp);
    p.extrapolated = procs > max_train_procs;
    r.points.push_back(p);
  }
  finalize(r);
  return r;
}

namespace {

[[nodiscard]] bool is_pattern(const CellReport& r) { return !r.skeleton.empty(); }

}  // namespace

double SuiteReport::worst_primitive_median() const {
  double worst = 0.0;
  for (const CellReport& r : cells) {
    if (!is_pattern(r)) worst = std::max(worst, r.median_rel_err);
  }
  return worst;
}

double SuiteReport::worst_pattern_median() const {
  double worst = 0.0;
  for (const CellReport& r : cells) {
    if (is_pattern(r)) worst = std::max(worst, r.median_rel_err);
  }
  return worst;
}

SuiteReport run_default_suite(const MeasureTpl& measure, unsigned threads) {
  using eval::Primitive;
  using host::PlatformId;
  using mp::ToolKind;

  std::vector<std::function<CellReport()>> jobs;
  const ToolKind tools[] = {ToolKind::P4, ToolKind::Pvm, ToolKind::Express};
  const PlatformId paper[] = {PlatformId::SunEthernet, PlatformId::AlphaFddi};
  const PlatformId fabrics[] = {PlatformId::ClusterFlat, PlatformId::ClusterFatTree,
                                PlatformId::ClusterDragonfly};

  // -- ping-pong: size axis only (2-rank primitive); hold out sizes inside
  //    and beyond the training range.
  const TrainGrid pingpong_train{{256, 512, 1024, 2048, 4096, 8192, 16384}, {2}};
  const std::vector<HoldoutPoint> pingpong_holdout = {
      {768, 2}, {3072, 2}, {6144, 2}, {12288, 2}, {32768, 2}, {65536, 2}};

  // -- broadcast / global sum: train a (size x procs) grid, hold out
  //    interpolated procs everywhere and extrapolated procs on fabrics.
  //    One non-power-of-two P in training separates the staircase
  //    ceil(log2 P) of hypercube collectives from a smooth log2 P -- on a
  //    powers-of-two grid the two columns are identical.
  const TrainGrid collective_paper{{1024, 2048, 4096, 8192, 16384}, {2, 3, 4, 8}};
  const std::vector<HoldoutPoint> collective_paper_holdout = {
      {1536, 3}, {6144, 6}, {12288, 8}, {32768, 4}};
  const TrainGrid collective_fabric{{1024, 2048, 4096, 8192, 16384}, {2, 3, 4, 8, 16}};
  const std::vector<HoldoutPoint> collective_fabric_holdout = {
      {1536, 6}, {6144, 12}, {12288, 24}, {12288, 32}, {32768, 32}};

  const auto primitive = [&](ToolKind tool, PlatformId platform, Primitive prim,
                             const TrainGrid& train,
                             const std::vector<HoldoutPoint>& holdout) {
    jobs.emplace_back([&measure, &train, &holdout, tool, platform, prim] {
      return cross_validate_primitive(tool, platform, prim, train, holdout, measure);
    });
  };
  for (ToolKind tool : tools) {
    for (PlatformId platform : paper) {
      primitive(tool, platform, Primitive::SendRecv, pingpong_train, pingpong_holdout);
      primitive(tool, platform, Primitive::Broadcast, collective_paper,
                collective_paper_holdout);
      if (tool != ToolKind::Pvm) {
        primitive(tool, platform, Primitive::GlobalSum, collective_paper,
                  collective_paper_holdout);
      }
    }
    for (PlatformId platform : fabrics) {
      primitive(tool, platform, Primitive::SendRecv, pingpong_train, pingpong_holdout);
      primitive(tool, platform, Primitive::Broadcast, collective_fabric,
                collective_fabric_holdout);
      if (tool != ToolKind::Pvm) {
        primitive(tool, platform, Primitive::GlobalSum, collective_fabric,
                  collective_fabric_holdout);
      }
    }
  }

  // -- composed patterns on the switched platforms (the composition
  //    algebra assumes per-link resources; the shared-Ethernet bus wants a
  //    contention-aware algebra -- see DESIGN 5.16).
  const auto pattern = [&](ToolKind tool, PlatformId platform, PatternConfig config) {
    jobs.emplace_back([&measure, tool, platform, config = std::move(config)] {
      return cross_validate_pattern(tool, platform, config, measure);
    });
  };
  const PlatformId switched[] = {PlatformId::AlphaFddi, PlatformId::ClusterFlat,
                                 PlatformId::ClusterFatTree, PlatformId::ClusterDragonfly};
  for (ToolKind tool : {ToolKind::P4, ToolKind::Express}) {
    for (PlatformId platform : switched) {
      // Per-item compute sized to ~3x the platform's 4 KB one-way hop so
      // the patterns are compute-plus-communication, not pure forwarding.
      const double flops = platform == PlatformId::AlphaFddi ? 1.2e5 : 1.0e6;

      PatternConfig pipeline;
      pipeline.kind = PatternKind::Pipeline;
      pipeline.bytes = 4096;
      pipeline.procs = {4, 8};
      pipeline.tasks = 16;
      pipeline.flops = flops;
      pipeline.train = pingpong_train;
      pattern(tool, platform, std::move(pipeline));

      PatternConfig mapreduce;
      mapreduce.kind = PatternKind::MapReduce;
      mapreduce.bytes = 8192;
      mapreduce.ints = 2048;
      mapreduce.procs = {4, 8};
      mapreduce.tasks = 32;
      mapreduce.flops = flops;
      mapreduce.train = platform == PlatformId::AlphaFddi ? collective_paper
                                                          : collective_fabric;
      pattern(tool, platform, std::move(mapreduce));

      PatternConfig taskpool;
      taskpool.kind = PatternKind::TaskPool;
      taskpool.bytes = 4096;
      taskpool.procs = {3, 5};
      taskpool.tasks = 24;
      taskpool.flops = flops;
      taskpool.train = pingpong_train;
      pattern(tool, platform, std::move(taskpool));
    }
  }

  SuiteReport suite;
  suite.cells.resize(jobs.size());
  eval::parallel_for_index(jobs.size(), threads,
                           [&](std::size_t i) { suite.cells[i] = jobs[i](); });
  return suite;
}

namespace {

void append_point_json(std::string& out, const PointReport& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"n\":%.17g,\"p\":%.17g,\"measured_ms\":%.17g,\"predicted_ms\":%.17g,"
                "\"rel_err\":%.17g,\"extrapolated\":%s}",
                p.n, p.p, p.measured_ms, p.predicted_ms, p.rel_err,
                p.extrapolated ? "true" : "false");
  out += buf;
}

}  // namespace

std::string to_json(const CellReport& r) {
  std::string out = "{\"label\":\"" + r.label + "\",";
  if (r.skeleton.empty()) {
    out += "\"model\":" + to_json(r.model) + ",";
  } else {
    out += "\"skeleton\":\"" + r.skeleton + "\",\"leaf_model\":" + to_json(r.model) + ",";
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "\"median_rel_err\":%.17g,\"max_rel_err\":%.17g,"
                "\"median_extrapolated_err\":%.17g,\"points\":[",
                r.median_rel_err, r.max_rel_err, r.median_extrapolated_err);
  out += buf;
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    if (i > 0) out += ',';
    append_point_json(out, r.points[i]);
  }
  out += "]}";
  return out;
}

std::string to_json(const SuiteReport& r) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"worst_primitive_median\":%.17g,\"worst_pattern_median\":%.17g,"
                "\"cells\":[",
                r.worst_primitive_median(), r.worst_pattern_median());
  std::string out = buf;
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    if (i > 0) out += ',';
    out += to_json(r.cells[i]);
  }
  out += "]}";
  return out;
}

}  // namespace pdc::model
