#include "eval/cell.hpp"

#include <exception>

#include "eval/byte_codec.hpp"

namespace pdc::eval {

namespace {

// -- field lists: one layout per record, called by both directions ----------

constexpr auto link_fields = [](auto& io, auto& f) {
  io.f64(f.drop_rate);
  io.f64(f.corrupt_rate);
  io.f64(f.duplicate_rate);
  io.f64(f.reorder_rate);
  io.i64(f.reorder_jitter.ns);
};

constexpr auto override_fields = [](auto& io, auto& o) {
  io.i32(o.src);
  io.i32(o.dst);
  link_fields(io, o.faults);
};

constexpr auto flap_fields = [](auto& io, auto& f) {
  io.i32(f.a);
  io.i32(f.b);
  io.i64(f.start.ns);
  io.i64(f.end.ns);
};

constexpr auto plan_fields = [](auto& io, auto& p) {
  io.u64(p.seed);
  link_fields(io, p.link);
  io.list(p.overrides, 1u << 20, override_fields);
  io.list(p.flaps, 1u << 20, flap_fields);
};

constexpr auto platform_field = [](auto& io, auto& p) {
  io.enumeration(p, host::PlatformId::SunEthernet, host::PlatformId::ClusterDragonfly);
};

constexpr auto tool_field = [](auto& io, auto& t) {
  io.enumeration(t, mp::ToolKind::P4, mp::ToolKind::Express);
};

constexpr auto spec_fields = [](auto& io, auto& s) {
  io.enumeration(s.type, CellType::Tpl, CellType::Sched);
  switch (s.type) {
    case CellType::Tpl:
      io.enumeration(s.tpl.primitive, Primitive::SendRecv, Primitive::GlobalSum);
      platform_field(io, s.tpl.platform);
      tool_field(io, s.tpl.tool);
      io.i64(s.tpl.bytes);
      io.i32(s.tpl.procs);
      io.i64(s.tpl.global_sum_ints);
      plan_fields(io, s.tpl.faults);
      break;
    case CellType::App:
      platform_field(io, s.app.platform);
      tool_field(io, s.app.tool);
      io.enumeration(s.app.app, AppKind::Jpeg, AppKind::Psrs);
      io.i32(s.app.procs);
      plan_fields(io, s.app.faults);
      io.i32(s.apl.image_size);
      io.i32(s.apl.jpeg_quality);
      io.i32(s.apl.fft_n);
      io.i64(s.apl.mc_samples);
      io.i32(s.apl.mc_rounds);
      io.i64(s.apl.sort_keys);
      io.u64(s.apl.seed);
      break;
    case CellType::Sched:
      platform_field(io, s.sched.platform);
      io.i32(s.sched.nodes);
      io.f64(s.sched.arrival_rate_hz);
      io.i32(s.sched.njobs);
      io.i32(s.sched.users);
      io.u64(s.sched.seed);
      io.boolean(s.sched.policy.backfill);
      io.i64(s.sched.policy.aging_per_sec);
      io.i64(s.sched.policy.launch_overhead.ns);
      plan_fields(io, s.sched.faults);
      break;
  }
};

constexpr auto transport_fields = [](auto& io, auto& t) {
  io.i64(t.retransmits);
  io.i64(t.drops_seen);
  io.i64(t.corrupt_rejected);
  io.i64(t.dup_discarded);
};

constexpr auto job_fields = [](auto& io, auto& j) {
  io.i32(j.id);
  io.i32(j.user);
  io.i32(j.ranks);
  io.i32(j.base_node);
  tool_field(io, j.tool);
  io.enumeration(j.state, sched::JobState::Queued, sched::JobState::Rejected);
  io.i64(j.submit.ns);
  io.i64(j.start.ns);
  io.i64(j.complete.ns);
  transport_fields(io, j.transport);
};

constexpr auto goodput_fields = [](auto& io, auto& g) {
  tool_field(io, g.tool);
  io.i32(g.completed);
  io.f64(g.mean_wait_ms);
  io.f64(g.mean_slowdown);
  io.f64(g.node_millis);
  io.f64(g.goodput);
};

constexpr auto sched_outcome_fields = [](auto& io, auto& o) {
  auto& s = o.schedule;
  io.list(s.jobs, 1u << 24, job_fields);
  io.i64(s.makespan.ns);
  io.f64(s.utilization);
  io.f64(s.fairness);
  io.i32(s.completed);
  io.i32(s.rejected);
  io.u64(s.events);
  io.u64(s.messages);
  io.u64(s.payload_bytes);
  transport_fields(io, s.transport);
  io.i64(s.injected.frames);
  io.i64(s.injected.drops);
  io.i64(s.injected.flap_drops);
  io.i64(s.injected.corruptions);
  io.i64(s.injected.duplicates);
  io.i64(s.injected.reorders);
  io.list(o.per_tool, 16, goodput_fields);
};

constexpr auto result_fields = [](auto& io, auto& r) {
  io.enumeration(r.type, CellType::Tpl, CellType::Sched);
  io.enumeration(r.status, CellStatus::Ok, CellStatus::Error);
  io.str(r.error);
  switch (r.type) {
    case CellType::Tpl: io.f64(r.tpl_ms); break;
    case CellType::App: io.f64(r.app_s); break;
    case CellType::Sched: sched_outcome_fields(io, r.sched); break;
  }
};

}  // namespace

const char* to_string(CellType t) {
  switch (t) {
    case CellType::Tpl: return "tpl";
    case CellType::App: return "app";
    case CellType::Sched: return "sched";
  }
  return "?";
}

std::vector<std::byte> encode_spec(const CellSpec& spec) {
  return encode_with(spec, spec_fields);
}

std::optional<CellSpec> decode_spec(std::span<const std::byte> bytes) {
  return decode_with<CellSpec>(bytes, spec_fields);
}

std::vector<std::byte> encode_result(const CellResult& result) {
  return encode_with(result, result_fields);
}

std::optional<CellResult> decode_result(std::span<const std::byte> bytes) {
  return decode_with<CellResult>(bytes, result_fields);
}

bool CellResult::encode_equal(const CellResult& a, const CellResult& b) {
  return encode_result(a) == encode_result(b);
}

std::uint64_t cell_key(std::span<const std::byte> spec_bytes, std::uint64_t model_version) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;  // FNV prime
  };
  for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(model_version >> (8 * i)));
  for (const std::byte b : spec_bytes) mix(static_cast<std::uint8_t>(b));
  return h;
}

CellResult run_cell(const CellSpec& spec) {
  CellResult res;
  res.type = spec.type;
  try {
    switch (spec.type) {
      case CellType::Tpl: {
        const std::optional<double> ms = tpl_cell_ms(spec.tpl);
        if (ms) {
          res.tpl_ms = *ms;
        } else {
          res.status = CellStatus::Unsupported;
        }
        break;
      }
      case CellType::App:
        res.app_s = app_cell_s(spec.app, spec.apl);
        break;
      case CellType::Sched:
        res.sched = run_sched_cell(spec.sched);
        break;
    }
  } catch (const std::exception& e) {
    res = CellResult{};
    res.type = spec.type;
    res.status = CellStatus::Error;
    res.error = e.what();
  }
  return res;
}

std::vector<CellResult> sweep(std::span<const CellSpec> specs, unsigned threads) {
  std::vector<CellResult> out(specs.size());
  parallel_for_index(specs.size(), threads,
                     [&](std::size_t i) { out[i] = run_cell(specs[i]); });
  return out;
}

std::vector<CellSpec> table3_grid() {
  std::vector<CellSpec> grid;
  for (const host::PlatformId platform : host::all_platforms()) {
    for (const mp::ToolKind tool : mp::all_tools()) {
      for (const std::int64_t bytes : paper_message_sizes()) {
        TplCell cell;
        cell.primitive = Primitive::SendRecv;
        cell.platform = platform;
        cell.tool = tool;
        cell.bytes = bytes;
        cell.procs = 2;
        grid.push_back(CellSpec::of(cell));
      }
    }
  }
  return grid;
}

}  // namespace pdc::eval
