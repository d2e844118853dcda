#include "eval/trace_cell.hpp"

namespace pdc::eval {

// With the probes compiled out no record can ever arrive, so the capture
// skips the ring allocation entirely (the default capacity is a multi-MB
// buffer) and just runs the cell -- same result, empty stream.
TracedCell run_cell_traced(const CellSpec& spec, const TraceCapture& opt) {
  TracedCell out;
  if constexpr (!trace_compiled_in()) {
    out.result = run_cell(spec);
    return out;
  }
  trace::Sink sink(opt.capacity, opt.mask);
  {
    const trace::ScopedCapture capture(sink);
    out.result = run_cell(spec);
  }
  out.capacity = sink.capacity();
  if (out.result.status == CellStatus::Error) return out;
  out.records = sink.snapshot();
  out.stats = sink.stats();
  return out;
}

}  // namespace pdc::eval
