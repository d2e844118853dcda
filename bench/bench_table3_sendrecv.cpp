// Regenerates paper Table 3: snd/recv round-trip times on SUN SPARCstations
// over Ethernet, ATM LAN and ATM WAN, for PVM, p4 and Express, message
// sizes 0..64 KB. Prints measured (simulated) values side by side with the
// paper's published numbers.
//
// All cells are measured first through the parallel sweep runner (each cell
// is its own Simulation, so the values are bit-identical to a serial loop),
// then printed in table order.
#include <cstdio>
#include <vector>

#include "eval/cell.hpp"
#include "eval/paper_data.hpp"
#include "eval/tpl.hpp"

int main() {
  using namespace pdc;
  using host::PlatformId;
  using mp::ToolKind;

  const ToolKind tools[] = {ToolKind::Pvm, ToolKind::P4, ToolKind::Express};
  const PlatformId platforms[] = {PlatformId::SunEthernet, PlatformId::SunAtmLan,
                                  PlatformId::SunAtmWan};
  const auto measured = [](ToolKind tool, PlatformId p) {
    return !(tool == ToolKind::Express && p == PlatformId::SunAtmWan);  // not in the paper
  };

  // Build the cell grid in print order, sweep it, then consume in the same
  // order while printing.
  std::vector<eval::CellSpec> cells;
  for (std::int64_t bytes : eval::paper_message_sizes()) {
    for (ToolKind tool : tools) {
      for (PlatformId p : platforms) {
        if (measured(tool, p)) {
          cells.push_back(
              eval::CellSpec::of(eval::TplCell{eval::Primitive::SendRecv, p, tool, bytes, 2, 0}));
        }
      }
    }
  }
  const std::vector<eval::CellResult> ms = eval::sweep(cells);

  std::printf("Table 3: snd/recv timing for SUN SPARCstations (milliseconds)\n");
  std::printf("sim = this reproduction, paper = Hariri et al. 1995"
              " (sweep: %u threads, %zu cells)\n\n",
              eval::sweep_threads(), cells.size());
  std::printf("%8s |%25s |%25s |%25s\n", "", "PVM", "p4", "Express");
  std::printf("%8s |%8s %8s %7s |%8s %8s %7s |%8s %8s %7s\n", "KB", "Eth", "ATM-LAN",
              "ATM-WAN", "Eth", "ATM-LAN", "ATM-WAN", "Eth", "ATM-LAN", "ATM-WAN");
  std::printf("---------+--------------------------+--------------------------+"
              "--------------------------\n");

  std::size_t next = 0;
  for (std::int64_t bytes : eval::paper_message_sizes()) {
    std::printf("%8lld |", static_cast<long long>(bytes) / 1024);
    for (ToolKind tool : tools) {
      for (PlatformId p : platforms) {
        if (measured(tool, p)) {
          std::printf(" %8.2f", ms[next++].tpl_ms);
        } else {
          std::printf(" %7s", "-");
        }
      }
      std::printf(" |");
    }
    std::printf("\n  paper: |");
    for (ToolKind tool : tools) {
      for (PlatformId p : platforms) {
        auto v = eval::paper::table3_ms(tool, p, bytes);
        if (v) {
          std::printf(" %8.2f", *v);
        } else {
          std::printf(" %7s", "-");
        }
      }
      std::printf(" |");
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: p4 fastest everywhere; Express beats PVM at <=1KB,\n"
              "PVM beats Express at >=2KB; ATM-WAN ~= ATM-LAN plus a small constant.\n");
  return 0;
}
