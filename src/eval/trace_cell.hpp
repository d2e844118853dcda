// pdceval -- traced re-runs of individual sweep cells.
//
// Any cell of the evaluation grid (TPL, APL or scheduler) can be re-run
// with a trace capture installed: the cell executes exactly as run_cell
// runs it (same Simulation, same seed, same fault plan) and the returned
// record stream describes it event-by-event.
#pragma once

#include <cstddef>
#include <vector>

#include "eval/cell.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

namespace pdc::eval {

/// Capture options for a traced cell run.
struct TraceCapture {
  std::size_t capacity{trace::Sink::kDefaultCapacity};  ///< ring slots (pow2-rounded)
  std::uint32_t mask{trace::kDefaultMask};              ///< category filter
};

struct TracedCell {
  CellResult result;                   ///< the bytes run_cell returns
  std::vector<trace::Record> records;  ///< empty for an Error cell
  trace::SinkStats stats;
  std::size_t capacity{0};  ///< ring slots allocated
};

/// Run one cell of any kind with a capture installed on this thread. Like
/// run_cell, an infeasible spec comes back as Status::Error, here with an
/// empty record stream; only allocating the capture ring can throw.
[[nodiscard]] TracedCell run_cell_traced(const CellSpec& spec, const TraceCapture& opt = {});

}  // namespace pdc::eval
