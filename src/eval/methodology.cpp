#include "eval/methodology.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "eval/sweep.hpp"

namespace pdc::eval {

std::vector<ToolEvaluation> evaluate_tools(const EvaluationConfig& cfg) {
  const auto& w = cfg.level_weights;
  if (!std::isfinite(w.tpl) || !std::isfinite(w.apl) || !std::isfinite(w.adl)) {
    throw std::invalid_argument("evaluate_tools: non-finite level weight");
  }
  if (w.tpl < 0 || w.apl < 0 || w.adl < 0) {
    throw std::invalid_argument("evaluate_tools: negative level weight");
  }
  const double wsum = w.tpl + w.apl + w.adl;
  if (wsum <= 0) throw std::invalid_argument("evaluate_tools: all level weights zero");
  // One process makes broadcast and ring free, so best/actual is 0/0.
  if (cfg.procs < 2) throw std::invalid_argument("evaluate_tools: procs must be >= 2");

  // Measure: one sweep over every distinct cell. Column-major table, one
  // column per app then per primitive, one row per tool; the long app
  // cells come first so the pool starts on them.
  const auto& tools = mp::all_tools();
  const auto& apps = all_apps();
  const auto& prims = all_primitives();
  const std::size_t nt = tools.size();
  const std::size_t na = apps.size();
  std::vector<std::optional<double>> cell((na + prims.size()) * nt);
  parallel_for_index(cell.size(), 0, [&](std::size_t i) {
    const mp::ToolKind tool = tools[i % nt];
    const std::size_t col = i / nt;
    cell[i] = col < na ? std::optional<double>(
                             app_cell_s({cfg.platform, tool, apps[col], cfg.procs}, cfg.apl))
                       : tpl_cell_ms({prims[col - na], cfg.platform, tool, cfg.tpl_bytes,
                                      cfg.procs, cfg.global_sum_ints});
  });
  // Score: best (first strict minimum over the tools) per column, then
  // best/actual per tool in app and primitive order.
  std::vector<double> best(cell.size() / nt);
  for (std::size_t col = 0; col < best.size(); ++col) {
    bool any = false;
    for (std::size_t t = 0; t < nt; ++t) {
      const auto& ms = cell[col * nt + t];
      if (ms && (!any || *ms < best[col])) {
        best[col] = *ms;
        any = true;
      }
    }
  }
  std::vector<ToolEvaluation> out(nt);
  for (std::size_t t = 0; t < nt; ++t) {
    ToolEvaluation& e = out[t];
    e.tool = tools[t];
    double log_sum = 0.0;
    bool missing = false;
    for (std::size_t col = na; col < best.size() && !missing; ++col) {
      missing = !cell[col * nt + t];
      if (!missing) log_sum += std::log(best[col] / *cell[col * nt + t]);
    }
    e.tpl_score = missing ? 0.0 : std::exp(log_sum / static_cast<double>(prims.size()));
    double sum = 0.0;
    for (std::size_t col = 0; col < na; ++col) sum += best[col] / *cell[col * nt + t];
    e.apl_score = sum / static_cast<double>(na);
    e.adl_score = adl_score(e.tool, cfg.adl_weights);
    e.overall = (w.tpl * e.tpl_score + w.apl * e.apl_score + w.adl * e.adl_score) / wsum;
  }
  std::sort(out.begin(), out.end(),
            [](const ToolEvaluation& a, const ToolEvaluation& b) { return a.overall > b.overall; });
  return out;
}

std::vector<mp::ToolKind> rank_by_primitive(host::PlatformId platform, Primitive primitive,
                                            int procs, std::int64_t bytes) {
  std::vector<std::pair<double, mp::ToolKind>> timed;
  for (mp::ToolKind t : mp::all_tools()) {
    const auto ms =
        tpl_cell_ms({primitive, platform, t, bytes, procs, /*global_sum_ints=*/bytes / 4});
    if (ms) timed.emplace_back(*ms, t);
  }
  std::sort(timed.begin(), timed.end());
  std::vector<mp::ToolKind> out;
  out.reserve(timed.size());
  for (const auto& [ms, t] : timed) out.push_back(t);
  return out;
}

}  // namespace pdc::eval
