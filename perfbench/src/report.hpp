// perfbench -- what one run reports: op counts, the named metrics, the
// provenance of the build, and notes (why a metric is absent, what a
// value means). The last line of standard output is the result object the
// benchmark contract fixes; the full report goes on the line before it and
// into the output directory.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Name and unit of every per-layer metric a traced run reports.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetricDef>& layer_metric_defs();

class Report {
 public:
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  /// End-to-end metric (gated).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric; the name must be one of layer_metric_defs().
  void layer(const std::string& name, double value);
  /// Why a per-layer metric reads 0 in this run.
  void absent(const std::string& name, const std::string& why);
  /// Free-form string / numeric annotations (provenance, sample counts).
  void note(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// Count `n` attempted ops, `bad` of which failed.
  void ops(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }

  /// Mark every per-layer metric neither set nor marked absent as absent.
  void absent_unset(const std::string& why);

  [[nodiscard]] bool correct() const noexcept { return failed == 0 && attempted > 0; }
  /// Value of a metric reported so far (0 if not reported).
  [[nodiscard]] double e2e_value(const std::string& name) const;
  [[nodiscard]] double layer_value(const std::string& name) const;

  /// The contract's result object: end-to-end metrics when !traced, every
  /// per-layer metric (absent ones as 0) when traced.
  [[nodiscard]] std::string result_json(bool traced) const;
  /// Everything: result fields, both metric sets, notes, absent reasons.
  [[nodiscard]] std::string detail_json() const;

 private:
  std::vector<Metric> e2e_;
  std::map<std::string, double> layer_;
  std::map<std::string, std::string> absent_;
  std::map<std::string, std::string> notes_;
  std::map<std::string, double> info_;
};

/// A JSON string literal for `s` (quotes included).
[[nodiscard]] std::string json_string(const std::string& s);
/// A JSON number with full double precision (non-finite values become 0).
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
