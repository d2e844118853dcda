// perfbench -- the workloads' inputs. Grids are fixed by the paper and the
// scale study; everything that varies comes from the workload seed through
// SplitMix64 substreams, so the same seed always gives the same inputs and
// the program under test only ever sees the generated cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "eval/cell.hpp"
#include "stats.hpp"

namespace perfbench {

/// The TPL cells behind Table 3 (the published tool x platform columns)
/// and Figures 2-4 (broadcast, ring, global sum on 4 SUNs).
[[nodiscard]] std::vector<pdc::eval::CellSpec> paper_tpl_grid();

/// The APL cells behind Figures 5-8 (procs 1-8; 1-4 on ATM-WAN; FFT only
/// at powers of two).
[[nodiscard]] std::vector<pdc::eval::CellSpec> paper_apl_grid();

/// The platforms of Figures 5-8, on which evaluate_tools runs.
[[nodiscard]] const std::vector<pdc::host::PlatformId>& figure_platforms();

/// Scale-study primitive cells: broadcast (4 KiB), global sum (256 ints
/// per rank) and ring (1 KiB) for all three tools on the flat, fat-tree and
/// dragonfly fabrics at each of `procs`.
[[nodiscard]] std::vector<pdc::eval::CellSpec> fabric_tpl_cells(const std::vector<int>& procs);

/// The `fabric` workload's ops in execution order: the P in {256, 1024,
/// 4096} primitive cells plus twelve seeded scheduler job streams (256
/// nodes, 200 jobs; four seeds per fabric), shuffled by `seed`.
[[nodiscard]] std::vector<pdc::eval::CellSpec> fabric_ops(std::uint64_t seed);

/// The `service` workload's stored cells: the full Table 3 grid, the
/// Figures 2-4 cells and small-P (16, 64) scale-study cells.
[[nodiscard]] std::vector<pdc::eval::CellSpec> service_read_set();

/// One scripted client request of the `service` workload.
struct ServiceOp {
  enum class Kind : std::uint8_t { Read, Write, Invalidate };
  Kind kind{Kind::Read};
  std::size_t index{0};         ///< Read / Invalidate: index into the read set
  pdc::eval::CellSpec spec{};  ///< Write: a never-seen faulted cell
};

/// The `service` request stream: ~95% reads of stored cells (uniform over
/// the read set), ~5% writes of never-seen faulted send/receive cells
/// (each with its own fault seed), ~0.5% invalidations. Deterministic in
/// (seed, read_set_size) and unbounded.
class ServiceScript {
 public:
  static constexpr double kInvalidateShare = 0.005;
  static constexpr double kWriteShare = 0.05;

  ServiceScript(std::uint64_t seed, std::size_t read_set_size);
  [[nodiscard]] ServiceOp next();

 private:
  SplitMix64 rng_;
  std::uint64_t fault_seed_base_;
  std::uint64_t writes_{0};
  std::size_t read_set_size_;
};

/// A faulted send/receive cell (3% drop, 1% corrupt, 1% duplicate) whose
/// fault plan is seeded with `fault_seed`; platform, tool and size are
/// drawn from `rng`.
[[nodiscard]] pdc::eval::CellSpec faulted_cell(SplitMix64& rng, std::uint64_t fault_seed);

}  // namespace perfbench
