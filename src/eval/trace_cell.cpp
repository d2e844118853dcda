#include "eval/trace_cell.hpp"

namespace pdc::eval {

TracedCell run_cell_traced(const CellSpec& spec, const TraceCapture& opt) {
  TracedCell out;
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
