// Regenerates paper Figure 5: the four SU PDABS applications on the DEC
// Alpha / FDDI cluster, 1-8 processors, Express / p4 / PVM.
//
// Expected shape (paper): p4 best for JPEG and 2D-FFT (communication-
// heavy); PVM best for Sorting (asynchronous buffered all-to-all); Express
// best for Monte Carlo (cheap recursive-doubling excombine in the Alpha
// native port).
#include "apl_table.hpp"

int main() {
  pdc::bench::print_apl_figure(
      "Figure 5: Application performances on ALPHA/FDDI",
      pdc::host::PlatformId::AlphaFddi, {1, 2, 3, 4, 5, 6, 7, 8},
      {pdc::mp::ToolKind::Express, pdc::mp::ToolKind::P4, pdc::mp::ToolKind::Pvm});
  return 0;
}
