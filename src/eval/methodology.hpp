// pdceval -- the paper's primary contribution: the multi-level evaluation
// methodology (Section 2).
//
// Tools are evaluated at three levels -- TPL (primitive performance), APL
// (application performance) and ADL (usability) -- each producing a
// normalised score in [0, 1] (1.0 = best tool on this platform). User-
// supplied weight factors combine the levels into an overall, audience-
// tailored score: "a user would give the response time as the most
// important metric ... a system manager might consider utilization" --
// hence weights, not a fixed formula.
#pragma once

#include <cstdint>
#include <vector>

#include "eval/apl.hpp"
#include "eval/criteria.hpp"
#include "eval/tpl.hpp"
#include "host/platform.hpp"
#include "mp/tool.hpp"

namespace pdc::eval {

/// Relative importance of the three evaluation levels.
struct LevelWeights {
  double tpl{1.0};
  double apl{1.0};
  double adl{1.0};
};

struct ToolEvaluation {
  mp::ToolKind tool;
  double tpl_score;  ///< normalised primitive performance, [0,1]
  double apl_score;  ///< normalised application performance, [0,1]
  double adl_score;  ///< weighted usability, [0,1]
  double overall;    ///< weight-combined score, [0,1]
};

/// Options for one evaluation run.
struct EvaluationConfig {
  host::PlatformId platform{host::PlatformId::SunEthernet};
  int procs{4};                         ///< process count for TPL collectives & APL
  std::int64_t tpl_bytes{16384};        ///< representative TPL message size
  std::int64_t global_sum_ints{40000};  ///< vector length for the global-sum probe
  LevelWeights level_weights{};
  AdlWeights adl_weights{AdlWeights::uniform()};
  AplConfig apl{};
};

/// Evaluate all three tools on one platform; returned vector is sorted by
/// descending overall score (the recommendation order). Every (tool,
/// primitive) and (tool, application) cell is measured once. TPL is the
/// geometric mean of best/actual over the four primitives (a missing one --
/// PVM's global sum, the paper's "Not Available" -- scores the tool 0); APL
/// is the mean of best/actual over the four apps. Throws
/// std::invalid_argument for a negative, non-finite or all-zero level
/// weight and for `procs < 2`.
[[nodiscard]] std::vector<ToolEvaluation> evaluate_tools(const EvaluationConfig& cfg);

/// Tools ordered fastest-first on `primitive` (paper Table 4 rows). PVM is
/// omitted from GlobalSum.
[[nodiscard]] std::vector<mp::ToolKind> rank_by_primitive(host::PlatformId platform,
                                                          Primitive primitive, int procs,
                                                          std::int64_t bytes);

}  // namespace pdc::eval
