// Regenerates paper Figure 2: broadcast timing among 4 SUN workstations
// over Ethernet (PVM, p4, Express) and over the ATM WAN / NYNET (PVM, p4 --
// the paper does not plot Express on ATM). Cells are measured through the
// parallel sweep runner; values are bit-identical to a serial loop.
#include <cstdio>
#include <vector>

#include "eval/cell.hpp"
#include "eval/tpl.hpp"

int main() {
  using namespace pdc;
  using host::PlatformId;
  using mp::ToolKind;
  constexpr int kProcs = 4;

  std::vector<eval::CellSpec> cells;
  for (std::int64_t bytes : eval::paper_message_sizes()) {
    for (ToolKind t : {ToolKind::Pvm, ToolKind::P4, ToolKind::Express}) {
      cells.push_back(eval::CellSpec::of(
          eval::TplCell{eval::Primitive::Broadcast, PlatformId::SunEthernet, t, bytes, kProcs, 0}));
    }
    for (ToolKind t : {ToolKind::Pvm, ToolKind::P4}) {
      cells.push_back(eval::CellSpec::of(
          eval::TplCell{eval::Primitive::Broadcast, PlatformId::SunAtmWan, t, bytes, kProcs, 0}));
    }
  }
  const std::vector<eval::CellResult> ms = eval::sweep(cells);

  std::printf("Figure 2: broadcast timing using %d SUNs (milliseconds)"
              " (sweep: %u threads, %zu cells)\n\n",
              kProcs, eval::sweep_threads(), cells.size());
  std::printf("%8s |%28s |%19s\n", "", "Ethernet", "ATM WAN (NYNET)");
  std::printf("%8s |%9s %9s %8s |%9s %9s\n", "KB", "PVM", "p4", "Express", "PVM", "p4");
  std::printf("---------+-----------------------------+--------------------\n");
  std::size_t next = 0;
  for (std::int64_t bytes : eval::paper_message_sizes()) {
    std::printf("%8lld |", static_cast<long long>(bytes) / 1024);
    for (int i = 0; i < 3; ++i) std::printf(" %9.2f", ms[next++].tpl_ms);
    std::printf(" |");
    for (int i = 0; i < 2; ++i) std::printf(" %9.2f", ms[next++].tpl_ms);
    std::printf("\n");
  }
  std::printf("\nExpected shape (paper): p4 best, Express worst on Ethernet; the\n"
              "snd/rcv winner is not automatically the broadcast winner -- the\n"
              "broadcast algorithm (binomial tree vs sequential) dominates.\n");
  return 0;
}
