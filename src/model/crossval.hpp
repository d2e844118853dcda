// pdcmodel -- the cross-validation harness: fit on a training grid,
// predict held-out (N, P) points -- including P beyond the training range
// -- run the real simulation at those points, and report relative-error
// bands (ROADMAP item 3 acceptance gate; tables in EXPERIMENTS.md).
//
// Measurements flow through a MeasureTpl function so training data can
// come straight from eval::sweep (direct_measure) or from a pdcevald
// daemon's memoized store (wrap evald::Client::sweep -- pdcmodel
// --server does exactly that). Both sources are bit-identical by the
// store's cached==fresh guarantee, so the fitted models are too.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "eval/cell.hpp"
#include "model/model.hpp"
#include "model/skeleton.hpp"

namespace pdc::model {

/// Where measurements come from: takes a batch of TPL cell specs, returns
/// one result per spec in order (Unsupported = tool lacks the primitive).
/// run_default_suite may call it from several threads at once, so a
/// measure shared by the suite's cells must be safe to call concurrently.
using MeasureTpl =
    std::function<std::vector<eval::CellResult>(const std::vector<eval::CellSpec>&)>;

/// Measure via eval::sweep with `threads` workers (0 = resolve from
/// PDC_SWEEP_THREADS as usual).
[[nodiscard]] MeasureTpl direct_measure(unsigned threads = 0);

/// Cartesian training grid. `sizes` is bytes for SendRecv / Broadcast /
/// Ring and int32 elements for GlobalSum; SendRecv ignores `procs` (it is
/// a 2-rank primitive).
struct TrainGrid {
  std::vector<std::int64_t> sizes;
  std::vector<int> procs{2};
};

struct HoldoutPoint {
  std::int64_t size{0};
  int procs{2};
};

struct PointReport {
  double n{0.0};
  double p{0.0};
  double measured_ms{0.0};
  double predicted_ms{0.0};
  double rel_err{0.0};        ///< |pred - measured| / measured
  bool extrapolated{false};   ///< beyond the training range on N or P
};

struct CellReport {
  std::string label;                 ///< "p4/fattree/broadcast" or ".../pipeline"
  FittedModel model{};               ///< the fitted primitive (primitive cells)
  std::string skeleton;              ///< Skeleton::describe() (pattern cells)
  std::vector<PointReport> points;
  double median_rel_err{0.0};
  double max_rel_err{0.0};
  double median_extrapolated_err{0.0};  ///< over extrapolated points only (0 if none)
};

/// Fit `primitive` for (tool, platform) on `train`, then predict and
/// simulate every holdout point. Throws std::runtime_error when the tool
/// lacks the primitive or a measurement fails.
[[nodiscard]] CellReport cross_validate_primitive(mp::ToolKind tool,
                                                  host::PlatformId platform,
                                                  eval::Primitive primitive,
                                                  const TrainGrid& train,
                                                  std::span<const HoldoutPoint> holdout,
                                                  const MeasureTpl& measure);

enum class PatternKind { Pipeline, MapReduce, TaskPool };

[[nodiscard]] const char* to_string(PatternKind k);

/// One composed-pattern validation: fit the pattern's primitive leaves on
/// `train`, compose the skeleton, then simulate the real pattern at every
/// process count in `procs`.
struct PatternConfig {
  PatternKind kind{PatternKind::Pipeline};
  std::int64_t bytes{4096};
  std::vector<int> procs{4};
  int tasks{16};              ///< pipeline items / map tasks / pool tasks
  std::int64_t ints{1024};    ///< map-reduce reduction vector length
  double flops{0.0};          ///< per-item application compute (known, not fitted)
  TrainGrid train;            ///< grid for the underlying primitives
};

[[nodiscard]] CellReport cross_validate_pattern(mp::ToolKind tool,
                                                host::PlatformId platform,
                                                const PatternConfig& config,
                                                const MeasureTpl& measure);

/// Build the composed skeleton for `kind` from already-fitted leaves (the
/// composition algebra itself, exposed for tests and pdcmodel --compose).
/// `sendrecv`/`broadcast`/`ring`/`globalsum` are the fitted primitive
/// models the pattern draws on; patterns that do not use a leaf ignore it.
struct PatternLeaves {
  FittedModel sendrecv{};
  FittedModel broadcast{};
  FittedModel ring{};
  FittedModel globalsum{};
};
/// `work_ms` is the known per-item compute cost, composed in as a constant
/// node (callers derive it from platform_spec(p).cpu.compute(flops) -- the
/// identical quantity the reference simulations bill per item).
/// `overlap_comm` marks tools whose sends proceed in the background
/// (tool_profile(...).send_in_background): a pipeline stage then hides the
/// hop behind the item's compute (overlap = max) instead of paying both.
[[nodiscard]] Skeleton pattern_skeleton(PatternKind kind, const PatternLeaves& leaves,
                                        std::int64_t bytes, int procs, int tasks,
                                        std::int64_t ints, double work_ms,
                                        bool overlap_comm = false);

/// The canonical suite behind EXPERIMENTS.md, README's error table and the
/// CI model-smoke gate: core primitives (ping-pong, broadcast, global sum)
/// per tool on the paper's Ethernet + FDDI and the three scale fabrics --
/// with held-out P beyond the training range on every fabric -- plus the
/// three composed patterns on the switched platforms.
struct SuiteReport {
  std::vector<CellReport> cells;
  [[nodiscard]] double worst_primitive_median() const;
  [[nodiscard]] double worst_pattern_median() const;
};

/// Cross-validate the suite's 64 cells across `threads` sweep workers (0 =
/// resolve from PDC_SWEEP_THREADS as usual). Each cell's report keeps its
/// fixed slot, so the suite is byte-identical at any width; a sweep that
/// `measure` starts inside a cell runs inline on that cell's worker. If
/// cells fail, the error of the first failing cell in suite order is
/// rethrown.
[[nodiscard]] SuiteReport run_default_suite(const MeasureTpl& measure,
                                            unsigned threads = 0);

[[nodiscard]] std::string to_json(const CellReport& r);
[[nodiscard]] std::string to_json(const SuiteReport& r);

}  // namespace pdc::model
