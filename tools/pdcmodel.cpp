// pdcmodel -- fit analytic performance models from sweeps, compose them
// through parallel-pattern skeletons, and cross-validate against the
// simulator (ROADMAP item 3).
//
//   pdcmodel --fit --tool p4 --platform fddi --primitive broadcast
//            --sizes 1024..16384*4 --procs 2..8x2 [--at 32768:16]...
//   pdcmodel --crossval --tool p4 --platform fattree --primitive globalsum
//            --sizes 1024..16384*4 --procs 2..16x2 --holdout 8192:24
//            --holdout 8192:32 [--gate 0.15]
//   pdcmodel --compose pipeline --tool express --platform flat
//            --sizes 256..16384*2 --bytes 4096 --procs 4..8x4 --tasks 16
//   pdcmodel --suite [--gate-primitive 0.15 --gate-pattern 0.25]
//   (each command is one line; wrapped here for width)
//
// Training measurements run through eval::sweep by default; --server
// routes them through a pdcevald daemon instead, so a warmed store answers
// from memory and the fit costs no simulation at all. Either path yields
// bit-identical observations, hence bit-identical models. --json prints
// machine-readable reports (validated JSON; schema in src/model).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cell_args.hpp"
#include "evald/client.hpp"
#include "model/crossval.hpp"

namespace {

using pdc::model::CellReport;
using pdc::model::FittedModel;
using pdc::model::HoldoutPoint;
using pdc::model::MeasureTpl;
using pdc::model::PatternConfig;
using pdc::model::PatternKind;
using pdc::model::SuiteReport;
using pdc::model::TrainGrid;

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "pdcmodel: fit, compose and cross-validate performance models\n"
               "  --fit                    fit one primitive on the training grid\n"
               "  --crossval               fit, then validate on --holdout points\n"
               "  --compose pipeline|mapreduce|taskpool\n"
               "                           fit leaves, compose the skeleton, validate\n"
               "                           against the pattern simulation\n"
               "  --suite                  the canonical EXPERIMENTS.md suite\n"
               "  --tool p4|pvm|express  --platform %s\n"
               "  --primitive sendrecv|broadcast|ring|globalsum\n"
               "  --sizes R --procs R      training grid (R = N | N0..N1xS | N0..N1*K;\n"
               "                           sizes are bytes, or int32 counts for globalsum)\n"
               "  --at SIZE:PROCS          extra prediction point after --fit (repeatable)\n"
               "  --holdout SIZE:PROCS     held-out validation point (repeatable)\n"
               "  --bytes N --tasks N --ints N --flops F   composed-pattern workload\n"
               "  --server PATH            fetch training data from a pdcevald daemon\n"
               "  --threads N              sweep worker threads, also the --suite cell\n"
               "                           fan-out (default: env/auto)\n"
               "  --gate X                 exit 1 if median rel. error > X (--crossval)\n"
               "  --gate-primitive X --gate-pattern X    same for --suite\n"
               "  --json                   print reports as JSON\n",
               pdc::tools::kPlatformNames);
  std::exit(code);
}

[[nodiscard]] bool parse_point(const std::string& s, HoldoutPoint& out) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) return false;
  std::int64_t size = 0, procs = 0;
  if (!pdc::tools::parse_number(s.substr(0, colon), size) ||
      !pdc::tools::parse_number(s.substr(colon + 1), procs)) {
    return false;
  }
  if (size < 0 || procs < 2 || procs > 1 << 20) return false;
  out.size = size;
  out.procs = static_cast<int>(procs);
  return true;
}

/// Measure through a pdcevald daemon: ships the batch as one sweep frame
/// and returns the daemon's results in cell order. The suite measures from
/// several threads at once and the client is one socket, so a mutex keeps
/// each request and its reply together.
[[nodiscard]] MeasureTpl daemon_measure(const std::string& socket_path) {
  struct Daemon {
    explicit Daemon(const std::string& path) : client(path) {}
    std::mutex mu;
    pdc::evald::Client client;
  };
  auto daemon = std::make_shared<Daemon>(socket_path);
  return [daemon](const std::vector<pdc::eval::CellSpec>& specs) {
    std::vector<pdc::evald::Client::Outcome> outcomes;
    {
      const std::scoped_lock lock(daemon->mu);
      outcomes = daemon->client.sweep(specs);
    }
    std::vector<pdc::eval::CellResult> results;
    for (auto& out : outcomes) results.push_back(std::move(out.result));
    return results;
  };
}

void print_points(const CellReport& r) {
  for (const auto& p : r.points) {
    std::printf("  n=%-8.0f p=%-5.0f measured %.6f ms  predicted %.6f ms  "
                "err %5.1f%%%s\n",
                p.n, p.p, p.measured_ms, p.predicted_ms, 100.0 * p.rel_err,
                p.extrapolated ? "  [extrapolated]" : "");
  }
  std::printf("  median err %.1f%%  max err %.1f%%", 100.0 * r.median_rel_err,
              100.0 * r.max_rel_err);
  if (r.median_extrapolated_err > 0.0) {
    std::printf("  extrapolated median %.1f%%", 100.0 * r.median_extrapolated_err);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { None, Fit, CrossVal, Compose, Suite };
  Mode mode = Mode::None;
  namespace tools = pdc::tools;
  pdc::mp::ToolKind tool = pdc::mp::ToolKind::P4;
  pdc::host::PlatformId platform = pdc::host::PlatformId::SunEthernet;
  pdc::eval::Primitive primitive = pdc::eval::Primitive::SendRecv;
  PatternKind pattern = PatternKind::Pipeline;
  std::vector<std::int64_t> sizes{256, 1024, 4096, 16384};
  std::vector<std::int64_t> procs{2, 4, 8};
  std::vector<HoldoutPoint> at_points;
  std::vector<HoldoutPoint> holdout;
  std::int64_t bytes = 4096;
  std::int64_t ints = 1024;
  std::int64_t tasks = 16;
  double flops = 0.0;
  std::string server;
  std::int64_t threads = 0;
  double gate = -1.0, gate_primitive = -1.0, gate_pattern = -1.0;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pdcmodel: %s needs a value\n", arg.c_str());
        usage(2);
      }
      return argv[++i];
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--fit") mode = Mode::Fit;
    else if (arg == "--crossval") mode = Mode::CrossVal;
    else if (arg == "--suite") mode = Mode::Suite;
    else if (arg == "--compose") {
      mode = Mode::Compose;
      const std::string p = value();
      if (p == "pipeline") pattern = PatternKind::Pipeline;
      else if (p == "mapreduce") pattern = PatternKind::MapReduce;
      else if (p == "taskpool") pattern = PatternKind::TaskPool;
      else ok = false;
    }
    else if (arg == "--tool") ok = tools::parse_tool(value(), tool);
    else if (arg == "--platform") ok = tools::parse_platform(value(), platform);
    else if (arg == "--primitive") ok = tools::parse_primitive(value(), primitive);
    else if (arg == "--sizes") ok = tools::parse_range(value(), sizes);
    else if (arg == "--procs") {
      ok = tools::parse_range(value(), procs);
      for (std::int64_t p : procs) ok = ok && p >= 2 && p <= 1 << 20;
    }
    else if (arg == "--at") { at_points.emplace_back(); ok = parse_point(value(), at_points.back()); }
    else if (arg == "--holdout") { holdout.emplace_back(); ok = parse_point(value(), holdout.back()); }
    else if (arg == "--bytes") ok = tools::parse_number(value(), bytes) && bytes >= 0;
    else if (arg == "--ints") ok = tools::parse_number(value(), ints) && ints > 0;
    else if (arg == "--tasks") ok = tools::parse_number(value(), tasks) && tasks > 0 && tasks <= 1 << 20;
    else if (arg == "--flops") { flops = std::atof(value().c_str()); ok = flops >= 0.0; }
    else if (arg == "--server") server = value();
    else if (arg == "--threads") ok = tools::parse_number(value(), threads) && threads >= 0;
    else if (arg == "--gate") gate = std::atof(value().c_str());
    else if (arg == "--gate-primitive") gate_primitive = std::atof(value().c_str());
    else if (arg == "--gate-pattern") gate_pattern = std::atof(value().c_str());
    else if (arg == "--json") json = true;
    else {
      std::fprintf(stderr, "pdcmodel: unknown option %s\n", arg.c_str());
      usage(2);
    }
    if (!ok) {
      std::fprintf(stderr, "pdcmodel: bad value for %s\n", arg.c_str());
      usage(2);
    }
  }
  if (mode == Mode::None) {
    std::fprintf(stderr, "pdcmodel: pick one of --fit / --crossval / --compose / --suite\n");
    usage(2);
  }

  try {
    const MeasureTpl measure = server.empty()
                                   ? pdc::model::direct_measure(static_cast<unsigned>(threads))
                                   : daemon_measure(server);
    TrainGrid train;
    train.sizes = sizes;
    train.procs.clear();
    for (std::int64_t p : procs) train.procs.push_back(static_cast<int>(p));

    switch (mode) {
      case Mode::Fit: {
        // --fit is --crossval with the prediction points doubling as the
        // holdout set (none given: report the fit alone).
        const CellReport r = pdc::model::cross_validate_primitive(
            tool, platform, primitive, train, at_points, measure);
        if (json) {
          std::printf("%s\n", pdc::model::to_json(r).c_str());
          break;
        }
        std::printf("%s: %s  (lattice score %.3g, %zu points)\n", r.label.c_str(),
                    r.model.to_string().c_str(), r.model.score, r.model.points);
        print_points(r);
        break;
      }
      case Mode::CrossVal: {
        if (holdout.empty()) {
          std::fprintf(stderr, "pdcmodel: --crossval needs at least one --holdout\n");
          usage(2);
        }
        const CellReport r = pdc::model::cross_validate_primitive(
            tool, platform, primitive, train, holdout, measure);
        if (json) std::printf("%s\n", pdc::model::to_json(r).c_str());
        else {
          std::printf("%s: %s\n", r.label.c_str(), r.model.to_string().c_str());
          print_points(r);
        }
        if (gate >= 0.0 && r.median_rel_err > gate) {
          std::fprintf(stderr, "pdcmodel: median error %.1f%% over gate %.1f%%\n",
                       100.0 * r.median_rel_err, 100.0 * gate);
          return 1;
        }
        break;
      }
      case Mode::Compose: {
        PatternConfig cfg;
        cfg.kind = pattern;
        cfg.bytes = bytes;
        cfg.ints = ints;
        cfg.tasks = static_cast<int>(tasks);
        cfg.flops = flops;
        cfg.procs = train.procs;
        cfg.train = train;
        const CellReport r = pdc::model::cross_validate_pattern(tool, platform, cfg, measure);
        if (json) std::printf("%s\n", pdc::model::to_json(r).c_str());
        else {
          std::printf("%s: %s\n", r.label.c_str(), r.skeleton.c_str());
          print_points(r);
        }
        if (gate >= 0.0 && r.median_rel_err > gate) {
          std::fprintf(stderr, "pdcmodel: median error %.1f%% over gate %.1f%%\n",
                       100.0 * r.median_rel_err, 100.0 * gate);
          return 1;
        }
        break;
      }
      case Mode::Suite: {
        const SuiteReport suite =
            pdc::model::run_default_suite(measure, static_cast<unsigned>(threads));
        if (json) std::printf("%s\n", pdc::model::to_json(suite).c_str());
        else {
          for (const CellReport& r : suite.cells) {
            std::printf("%-28s median %5.1f%%  max %5.1f%%", r.label.c_str(),
                        100.0 * r.median_rel_err, 100.0 * r.max_rel_err);
            if (r.median_extrapolated_err > 0.0) {
              std::printf("  extrapolated %5.1f%%", 100.0 * r.median_extrapolated_err);
            }
            std::printf("\n");
          }
          std::printf("worst primitive median %.1f%%  worst pattern median %.1f%%\n",
                      100.0 * suite.worst_primitive_median(),
                      100.0 * suite.worst_pattern_median());
        }
        bool failed = false;
        if (gate_primitive >= 0.0 && suite.worst_primitive_median() > gate_primitive) {
          std::fprintf(stderr, "pdcmodel: worst primitive median %.1f%% over gate %.1f%%\n",
                       100.0 * suite.worst_primitive_median(), 100.0 * gate_primitive);
          failed = true;
        }
        if (gate_pattern >= 0.0 && suite.worst_pattern_median() > gate_pattern) {
          std::fprintf(stderr, "pdcmodel: worst pattern median %.1f%% over gate %.1f%%\n",
                       100.0 * suite.worst_pattern_median(), 100.0 * gate_pattern);
          failed = true;
        }
        if (failed) return 1;
        break;
      }
      case Mode::None: break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdcmodel: %s\n", e.what());
    return 1;
  }
  return 0;
}
