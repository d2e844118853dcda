// pdceval -- trace exporters: Chrome/Perfetto trace.json and CSV.
//
// The JSON exporter emits the Chrome trace-event format that Perfetto's
// legacy importer (ui.perfetto.dev, chrome://tracing) loads directly:
// complete ("X") slices on one track per rank and one per link, plus
// flow arrows ("s"/"f") connecting each send to the recv that matched it.
// Timestamps are microseconds (double) per the format; the source stream
// stays integer-ns, so exporting never perturbs analysis results.
#pragma once

#include <span>
#include <string>

#include "trace/record.hpp"

namespace pdc::trace {

/// Serialize the stream as a Chrome trace-event JSON object
/// (`{"displayTimeUnit":"ms","traceEvents":[...]}`). Ranks become threads
/// of process 0, links threads of process 1 and scheduler users threads of
/// process 2, where each completed job is one "job <id>" slice from its
/// start; send->recv flows are keyed by message id.
[[nodiscard]] std::string export_perfetto_json(std::span<const Record> records);

/// One row per record: `kind,t_ns,rank,peer,tag,bytes,id,aux0,aux1` with a
/// header line. Loads into any spreadsheet / pandas for ad-hoc analysis.
[[nodiscard]] std::string export_csv(std::span<const Record> records);

/// Result of the lightweight JSON shape check used by tests and the
/// `pdctrace --validate` flag.
struct ValidationResult {
  bool ok{false};
  std::size_t events{0};   ///< entries in traceEvents
  std::size_t flows{0};    ///< of which flow ("s"/"f") events
  std::size_t jobs{0};     ///< of which scheduler job slices ("X", "job <id>")
  std::string error;       ///< first problem found, empty when ok
};

/// Parse `json` with a minimal recursive-descent JSON parser (no external
/// dependencies) and check the Chrome trace shape: top-level object, a
/// `traceEvents` array whose entries are objects each carrying a string
/// `ph` and (for slices) numeric `ts`/`dur` plus `pid`/`tid`. Flow events
/// must pair: every "s" id has a matching "f".
[[nodiscard]] ValidationResult validate_perfetto_json(const std::string& json);

/// Syntax-only check with the same recursive-descent parser: true iff
/// `json` is one well-formed JSON value with no trailing content. Shared
/// by the pdceval/pdcmodel `--json` output tests, which only assert shape
/// (their schemas are theirs to define).
[[nodiscard]] bool validate_json(const std::string& json, std::string* error = nullptr);

}  // namespace pdc::trace
