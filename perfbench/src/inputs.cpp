#include "inputs.hpp"

#include <algorithm>

#include "eval/tpl.hpp"

namespace perfbench {

using pdc::eval::AppCell;
using pdc::eval::CellSpec;
using pdc::eval::Primitive;
using pdc::eval::TplCell;
using pdc::host::PlatformId;
using pdc::mp::ToolKind;

namespace {

constexpr ToolKind kTools[] = {ToolKind::Pvm, ToolKind::P4, ToolKind::Express};
constexpr PlatformId kFabrics[] = {PlatformId::ClusterFlat, PlatformId::ClusterFatTree,
                                   PlatformId::ClusterDragonfly};

CellSpec tpl(Primitive prim, PlatformId platform, ToolKind tool, std::int64_t bytes, int procs,
             std::int64_t ints = 0) {
  return CellSpec::of(TplCell{prim, platform, tool, bytes, procs, ints, {}});
}

/// Figures 2-4: broadcast and ring on 4 SUNs over Ethernet (three tools)
/// and ATM-WAN (PVM, p4), then the global vector sum.
void append_figs_2_to_4(std::vector<CellSpec>& out) {
  for (const Primitive prim : {Primitive::Broadcast, Primitive::Ring}) {
    for (const std::int64_t bytes : pdc::eval::paper_message_sizes()) {
      for (const ToolKind t : kTools) out.push_back(tpl(prim, PlatformId::SunEthernet, t, bytes, 4));
      for (const ToolKind t : {ToolKind::Pvm, ToolKind::P4}) {
        out.push_back(tpl(prim, PlatformId::SunAtmWan, t, bytes, 4));
      }
    }
  }
  for (const std::int64_t n : {0, 10000, 20000, 40000, 60000, 80000, 100000}) {
    out.push_back(tpl(Primitive::GlobalSum, PlatformId::SunEthernet, ToolKind::P4, 0, 4, n));
    out.push_back(tpl(Primitive::GlobalSum, PlatformId::SunEthernet, ToolKind::Express, 0, 4, n));
    out.push_back(tpl(Primitive::GlobalSum, PlatformId::SunAtmWan, ToolKind::P4, 0, 4, n));
    out.push_back(tpl(Primitive::GlobalSum, PlatformId::SunEthernet, ToolKind::Pvm, 0, 4, n));
  }
}

}  // namespace

std::vector<CellSpec> paper_tpl_grid() {
  std::vector<CellSpec> out;
  for (const std::int64_t bytes : pdc::eval::paper_message_sizes()) {
    for (const ToolKind t : kTools) {
      for (const PlatformId p :
           {PlatformId::SunEthernet, PlatformId::SunAtmLan, PlatformId::SunAtmWan}) {
        if (t == ToolKind::Express && p == PlatformId::SunAtmWan) continue;  // not in the paper
        out.push_back(tpl(Primitive::SendRecv, p, t, bytes, 2));
      }
    }
  }
  append_figs_2_to_4(out);
  return out;
}

const std::vector<PlatformId>& figure_platforms() {
  static const std::vector<PlatformId> kPlatforms = {PlatformId::AlphaFddi, PlatformId::Sp1Switch,
                                                     PlatformId::SunAtmWan,
                                                     PlatformId::SunEthernet};
  return kPlatforms;
}

std::vector<CellSpec> paper_apl_grid() {
  std::vector<CellSpec> out;
  for (const PlatformId p : figure_platforms()) {
    const bool wan = p == PlatformId::SunAtmWan;
    const int max_procs = wan ? 4 : 8;
    const std::vector<ToolKind> tools =
        wan ? std::vector<ToolKind>{ToolKind::P4, ToolKind::Pvm}
            : std::vector<ToolKind>{ToolKind::Express, ToolKind::P4, ToolKind::Pvm};
    for (const pdc::eval::AppKind app : pdc::eval::all_apps()) {
      for (int procs = 1; procs <= max_procs; ++procs) {
        if (app == pdc::eval::AppKind::Fft2d && (procs & (procs - 1)) != 0) continue;
        for (const ToolKind t : tools) out.push_back(CellSpec::of(AppCell{p, t, app, procs, {}}));
      }
    }
  }
  return out;
}

std::vector<CellSpec> fabric_tpl_cells(const std::vector<int>& procs) {
  std::vector<CellSpec> out;
  for (const PlatformId fabric : kFabrics) {
    for (const int p : procs) {
      for (const ToolKind t : kTools) {
        out.push_back(tpl(Primitive::Broadcast, fabric, t, 4096, p));
        out.push_back(tpl(Primitive::GlobalSum, fabric, t, 0, p, 256));
        out.push_back(tpl(Primitive::Ring, fabric, t, 1024, p));
      }
    }
  }
  return out;
}

std::vector<CellSpec> fabric_ops(std::uint64_t seed) {
  std::vector<CellSpec> ops = fabric_tpl_cells({256, 1024, 4096});
  SplitMix64 streams(substream(seed, "fabric.sched"));
  for (const PlatformId fabric : kFabrics) {
    for (int i = 0; i < 4; ++i) {
      pdc::eval::SchedCell c;
      c.platform = fabric;
      c.nodes = 256;
      c.njobs = 200;
      c.seed = streams.next();
      ops.push_back(CellSpec::of(c));
    }
  }
  // Fisher-Yates with the op-order substream.
  SplitMix64 order(substream(seed, "fabric.order"));
  for (std::size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[order.below(i)]);
  return ops;
}

std::vector<CellSpec> service_read_set() {
  std::vector<CellSpec> out = pdc::eval::table3_grid();
  append_figs_2_to_4(out);
  const std::vector<CellSpec> small = fabric_tpl_cells({16, 64});
  out.insert(out.end(), small.begin(), small.end());
  return out;
}

CellSpec faulted_cell(SplitMix64& rng, std::uint64_t fault_seed) {
  const auto& platforms = pdc::host::all_platforms();
  const auto& sizes = pdc::eval::paper_message_sizes();
  TplCell c;
  c.primitive = Primitive::SendRecv;
  c.platform = platforms[rng.below(platforms.size())];
  c.tool = kTools[rng.below(3)];
  c.bytes = sizes[1 + rng.below(sizes.size() - 1)];  // 1 KiB .. 64 KiB
  c.procs = 2;
  c.faults = pdc::fault::FaultPlan::uniform(0.03, 0.01, 0.01, 0.0, pdc::sim::microseconds(200),
                                            fault_seed);
  return CellSpec::of(c);
}

ServiceScript::ServiceScript(std::uint64_t seed, std::size_t read_set_size)
    : rng_(substream(seed, "service.script")),
      fault_seed_base_(substream(seed, "service.faults")),
      read_set_size_(read_set_size) {}

ServiceOp ServiceScript::next() {
  ServiceOp op;
  const double u = rng_.uniform();
  if (u < kInvalidateShare) {
    op.kind = ServiceOp::Kind::Invalidate;
    op.index = rng_.below(read_set_size_);
  } else if (u < kInvalidateShare + kWriteShare) {
    op.kind = ServiceOp::Kind::Write;
    // base + counter: distinct for every write of this script, so each
    // write is a spec the store has never seen.
    op.spec = faulted_cell(rng_, fault_seed_base_ + writes_++);
  } else {
    op.kind = ServiceOp::Kind::Read;
    op.index = rng_.below(read_set_size_);
  }
  return op;
}

}  // namespace perfbench
