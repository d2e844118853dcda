// pdceval -- Application Development Level (ADL) usability criteria (paper
// Sections 2.3 and 3.3.1).
//
// The paper characterises each tool against nine development-interface
// criteria with a three-point scale: WS (well supported), PS (partially
// supported), NS (not supported). The ratings below are the paper's own
// published assessment; the methodology layer turns them into weighted
// scores.
#pragma once

#include <string>
#include <vector>

#include "mp/tool.hpp"

namespace pdc::eval {

enum class Criterion {
  ProgrammingModels,   ///< host-node / SPMD (Cubix) models supported
  LanguageInterface,   ///< C and FORTRAN bindings
  EaseOfProgramming,   ///< learning curve, re-engineering effort
  DebuggingSupport,    ///< tracing, breakpoints, data inspection
  Customization,       ///< macros, reconfiguration, I/O formats
  ErrorHandling,       ///< graceful exits, useful messages
  RunTimeInterface,    ///< parallel I/O, redistribution, load balancing
  Integration,         ///< interfacing with visualisation/profiling etc.
  Portability,         ///< architecture-independent interface
};

enum class Support {
  NotSupported,        ///< NS
  PartiallySupported,  ///< PS
  WellSupported,       ///< WS
};

[[nodiscard]] const char* to_string(Criterion c);
[[nodiscard]] const char* to_string(Support s);  // "WS" / "PS" / "NS"

[[nodiscard]] const std::vector<Criterion>& all_criteria();

/// The paper's Section 3.3.1 assessment of `tool` against `criterion`.
[[nodiscard]] Support adl_rating(mp::ToolKind tool, Criterion criterion);

/// Numeric value of a rating: WS=1.0, PS=0.5, NS=0.0.
[[nodiscard]] double support_score(Support s);

/// One user-tunable weight per criterion (the paper: "by using weight
/// factors, an overall tool evaluation can be tailored").
struct AdlWeights {
  std::vector<std::pair<Criterion, double>> weights;

  /// Uniform weights over all nine criteria.
  [[nodiscard]] static AdlWeights uniform();
  [[nodiscard]] double weight_of(Criterion c) const;
};

/// Weighted ADL score of a tool in [0, 1]. Throws std::invalid_argument for
/// a negative or non-finite weight.
[[nodiscard]] double adl_score(mp::ToolKind tool, const AdlWeights& weights);

// -- Table 1: the paper's mapping from TPL primitives to native calls -------

enum class Primitive { SendRecv, Broadcast, Ring, GlobalSum };

[[nodiscard]] const char* to_string(Primitive p);
[[nodiscard]] const std::vector<Primitive>& all_primitives();

/// Native spelling of `primitive` in `tool` (paper Table 1), e.g.
/// ("exsend/exreceive", "p4_send/p4_recv", "Not Available").
[[nodiscard]] std::string native_call(mp::ToolKind tool, Primitive primitive);

}  // namespace pdc::eval
