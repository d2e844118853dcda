// Shared table printer for the application-performance figures (5-8).
#pragma once

#include <cstdio>
#include <vector>

#include "eval/apl.hpp"
#include "eval/cell.hpp"

namespace pdc::bench {

/// Print one paper figure: the four applications on `platform`, execution
/// time vs processor count for each tool. All cells are measured up front
/// through the parallel sweep runner (deterministic, bit-identical to a
/// serial loop), then printed in figure order.
inline void print_apl_figure(const char* title, host::PlatformId platform,
                             const std::vector<int>& procs,
                             const std::vector<mp::ToolKind>& tools) {
  const auto skip = [](eval::AppKind app, int p) {
    // The paper's 2D-FFT codes require the processor count to divide the
    // problem dimension; skip non-divisors as the paper's plots do.
    return app == eval::AppKind::Fft2d && (p & (p - 1)) != 0;
  };

  std::vector<eval::CellSpec> cells;
  for (eval::AppKind app : eval::all_apps()) {
    for (int p : procs) {
      if (skip(app, p)) continue;
      for (auto t : tools) {
        cells.push_back(eval::CellSpec::of(eval::AppCell{platform, t, app, p}));
      }
    }
  }
  const std::vector<eval::CellResult> seconds = eval::sweep(cells);

  std::printf("%s (sweep: %u threads, %zu cells)\n", title, eval::sweep_threads(),
              cells.size());
  std::size_t next = 0;
  for (eval::AppKind app : eval::all_apps()) {
    std::printf("\n%s on %s (seconds)\n", eval::to_string(app), host::to_string(platform));
    std::printf("%6s", "procs");
    for (auto t : tools) std::printf(" %10s", mp::to_string(t));
    std::printf("\n");
    for (int p : procs) {
      if (skip(app, p)) continue;
      std::printf("%6d", p);
      for (std::size_t i = 0; i < tools.size(); ++i) std::printf(" %10.4f", seconds[next++].app_s);
      std::printf("\n");
    }
  }
}

}  // namespace pdc::bench
