#include "eval/cell.hpp"

#include <bit>
#include <cstring>
#include <exception>
#include <limits>

namespace pdc::eval {

namespace {

// Fixed-width little-endian writer. Doubles travel as their IEEE-754 bit
// pattern, so encode(decode(x)) is the identity even for NaNs and the
// byte string is host-independent.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (char c : s) buf_.push_back(static_cast<std::byte>(c));
  }

  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

// Matching reader: any overrun sets `fail` and pins reads to zero, so
// callers can decode a whole struct and check once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    if (pos_ >= bytes_.size()) {
      fail_ = true;
      return 0;
    }
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    if (bytes_.size() - pos_ < n) {
      fail_ = true;
      return {};
    }
    std::string s(n, '\0');
    if (n > 0) std::memcpy(s.data(), bytes_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool failed() const noexcept { return fail_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_{0};
  bool fail_{false};
};

// -- field-group codecs -----------------------------------------------------

void put_link_faults(ByteWriter& w, const fault::LinkFaults& f) {
  w.f64(f.drop_rate);
  w.f64(f.corrupt_rate);
  w.f64(f.duplicate_rate);
  w.f64(f.reorder_rate);
  w.i64(f.reorder_jitter.ns);
}

fault::LinkFaults get_link_faults(ByteReader& r) {
  fault::LinkFaults f;
  f.drop_rate = r.f64();
  f.corrupt_rate = r.f64();
  f.duplicate_rate = r.f64();
  f.reorder_rate = r.f64();
  f.reorder_jitter = sim::Duration{r.i64()};
  return f;
}

void put_fault_plan(ByteWriter& w, const fault::FaultPlan& p) {
  w.u64(p.seed);
  put_link_faults(w, p.link);
  w.u32(static_cast<std::uint32_t>(p.overrides.size()));
  for (const auto& o : p.overrides) {
    w.i32(o.src);
    w.i32(o.dst);
    put_link_faults(w, o.faults);
  }
  w.u32(static_cast<std::uint32_t>(p.flaps.size()));
  for (const auto& fl : p.flaps) {
    w.i32(fl.a);
    w.i32(fl.b);
    w.i64(fl.start.ns);
    w.i64(fl.end.ns);
  }
}

fault::FaultPlan get_fault_plan(ByteReader& r, bool& ok) {
  fault::FaultPlan p;
  p.seed = r.u64();
  p.link = get_link_faults(r);
  const std::uint32_t n_over = r.u32();
  if (n_over > (1u << 20)) {
    ok = false;
    return p;
  }
  p.overrides.reserve(n_over);
  for (std::uint32_t i = 0; i < n_over && !r.failed(); ++i) {
    fault::LinkOverride o;
    o.src = r.i32();
    o.dst = r.i32();
    o.faults = get_link_faults(r);
    p.overrides.push_back(o);
  }
  const std::uint32_t n_flap = r.u32();
  if (n_flap > (1u << 20)) {
    ok = false;
    return p;
  }
  p.flaps.reserve(n_flap);
  for (std::uint32_t i = 0; i < n_flap && !r.failed(); ++i) {
    fault::FlapWindow f;
    f.a = r.i32();
    f.b = r.i32();
    f.start = sim::TimePoint{r.i64()};
    f.end = sim::TimePoint{r.i64()};
    p.flaps.push_back(f);
  }
  return p;
}

constexpr std::uint8_t kMaxPlatform = static_cast<std::uint8_t>(host::PlatformId::ClusterDragonfly);
constexpr std::uint8_t kMaxTool = static_cast<std::uint8_t>(mp::ToolKind::Express);
constexpr std::uint8_t kMaxPrimitive = static_cast<std::uint8_t>(Primitive::GlobalSum);
constexpr std::uint8_t kMaxApp = static_cast<std::uint8_t>(AppKind::Psrs);

void put_transport(ByteWriter& w, const mp::TransportStats& t) {
  w.i64(t.retransmits);
  w.i64(t.drops_seen);
  w.i64(t.corrupt_rejected);
  w.i64(t.dup_discarded);
}

mp::TransportStats get_transport(ByteReader& r) {
  mp::TransportStats t;
  t.retransmits = r.i64();
  t.drops_seen = r.i64();
  t.corrupt_rejected = r.i64();
  t.dup_discarded = r.i64();
  return t;
}

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
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(spec.type));
  switch (spec.type) {
    case CellType::Tpl:
      w.u8(static_cast<std::uint8_t>(spec.tpl.primitive));
      w.u8(static_cast<std::uint8_t>(spec.tpl.platform));
      w.u8(static_cast<std::uint8_t>(spec.tpl.tool));
      w.i64(spec.tpl.bytes);
      w.i32(spec.tpl.procs);
      w.i64(spec.tpl.global_sum_ints);
      put_fault_plan(w, spec.tpl.faults);
      break;
    case CellType::App:
      w.u8(static_cast<std::uint8_t>(spec.app.platform));
      w.u8(static_cast<std::uint8_t>(spec.app.tool));
      w.u8(static_cast<std::uint8_t>(spec.app.app));
      w.i32(spec.app.procs);
      put_fault_plan(w, spec.app.faults);
      w.i32(spec.apl.image_size);
      w.i32(spec.apl.jpeg_quality);
      w.i32(spec.apl.fft_n);
      w.i64(spec.apl.mc_samples);
      w.i32(spec.apl.mc_rounds);
      w.i64(spec.apl.sort_keys);
      w.u64(spec.apl.seed);
      break;
    case CellType::Sched:
      w.u8(static_cast<std::uint8_t>(spec.sched.platform));
      w.i32(spec.sched.nodes);
      w.f64(spec.sched.arrival_rate_hz);
      w.i32(spec.sched.njobs);
      w.i32(spec.sched.users);
      w.u64(spec.sched.seed);
      w.u8(spec.sched.policy.backfill ? 1 : 0);
      w.i64(spec.sched.policy.aging_per_sec);
      w.i64(spec.sched.policy.launch_overhead.ns);
      put_fault_plan(w, spec.sched.faults);
      break;
  }
  return w.take();
}

std::optional<CellSpec> decode_spec(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  CellSpec s;
  const std::uint8_t type = r.u8();
  if (type < 1 || type > 3) return std::nullopt;
  s.type = static_cast<CellType>(type);
  bool ok = true;
  switch (s.type) {
    case CellType::Tpl: {
      const std::uint8_t prim = r.u8(), plat = r.u8(), tool = r.u8();
      if (prim > kMaxPrimitive || plat > kMaxPlatform || tool > kMaxTool) return std::nullopt;
      s.tpl.primitive = static_cast<Primitive>(prim);
      s.tpl.platform = static_cast<host::PlatformId>(plat);
      s.tpl.tool = static_cast<mp::ToolKind>(tool);
      s.tpl.bytes = r.i64();
      s.tpl.procs = r.i32();
      s.tpl.global_sum_ints = r.i64();
      s.tpl.faults = get_fault_plan(r, ok);
      break;
    }
    case CellType::App: {
      const std::uint8_t plat = r.u8(), tool = r.u8(), app = r.u8();
      if (plat > kMaxPlatform || tool > kMaxTool || app > kMaxApp) return std::nullopt;
      s.app.platform = static_cast<host::PlatformId>(plat);
      s.app.tool = static_cast<mp::ToolKind>(tool);
      s.app.app = static_cast<AppKind>(app);
      s.app.procs = r.i32();
      s.app.faults = get_fault_plan(r, ok);
      s.apl.image_size = r.i32();
      s.apl.jpeg_quality = r.i32();
      s.apl.fft_n = r.i32();
      s.apl.mc_samples = r.i64();
      s.apl.mc_rounds = r.i32();
      s.apl.sort_keys = r.i64();
      s.apl.seed = r.u64();
      break;
    }
    case CellType::Sched: {
      const std::uint8_t plat = r.u8();
      if (plat > kMaxPlatform) return std::nullopt;
      s.sched.platform = static_cast<host::PlatformId>(plat);
      s.sched.nodes = r.i32();
      s.sched.arrival_rate_hz = r.f64();
      s.sched.njobs = r.i32();
      s.sched.users = r.i32();
      s.sched.seed = r.u64();
      s.sched.policy.backfill = r.u8() != 0;
      s.sched.policy.aging_per_sec = r.i64();
      s.sched.policy.launch_overhead = sim::Duration{r.i64()};
      s.sched.faults = get_fault_plan(r, ok);
      break;
    }
  }
  if (!ok || r.failed() || !r.exhausted()) return std::nullopt;
  return s;
}

std::vector<std::byte> encode_result(const CellResult& result) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(result.type));
  w.u8(static_cast<std::uint8_t>(result.status));
  w.str(result.error);
  switch (result.type) {
    case CellType::Tpl:
      w.f64(result.tpl_ms);
      break;
    case CellType::App:
      w.f64(result.app_s);
      break;
    case CellType::Sched: {
      const sched::ScheduleOutcome& s = result.sched.schedule;
      w.u32(static_cast<std::uint32_t>(s.jobs.size()));
      for (const sched::JobStats& j : s.jobs) {
        w.i32(j.id);
        w.i32(j.user);
        w.i32(j.ranks);
        w.i32(j.base_node);
        w.u8(static_cast<std::uint8_t>(j.tool));
        w.u8(static_cast<std::uint8_t>(j.state));
        w.i64(j.submit.ns);
        w.i64(j.start.ns);
        w.i64(j.complete.ns);
        put_transport(w, j.transport);
      }
      w.i64(s.makespan.ns);
      w.f64(s.utilization);
      w.f64(s.fairness);
      w.i32(s.completed);
      w.i32(s.rejected);
      w.u64(s.events);
      w.u64(s.messages);
      w.u64(s.payload_bytes);
      put_transport(w, s.transport);
      w.i64(s.injected.frames);
      w.i64(s.injected.drops);
      w.i64(s.injected.flap_drops);
      w.i64(s.injected.corruptions);
      w.i64(s.injected.duplicates);
      w.i64(s.injected.reorders);
      w.u32(static_cast<std::uint32_t>(result.sched.per_tool.size()));
      for (const ToolGoodput& g : result.sched.per_tool) {
        w.u8(static_cast<std::uint8_t>(g.tool));
        w.i32(g.completed);
        w.f64(g.mean_wait_ms);
        w.f64(g.mean_slowdown);
        w.f64(g.node_millis);
        w.f64(g.goodput);
      }
      break;
    }
  }
  return w.take();
}

std::optional<CellResult> decode_result(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  CellResult res;
  const std::uint8_t type = r.u8();
  const std::uint8_t status = r.u8();
  if (type < 1 || type > 3 || status > 2) return std::nullopt;
  res.type = static_cast<CellType>(type);
  res.status = static_cast<CellStatus>(status);
  res.error = r.str();
  switch (res.type) {
    case CellType::Tpl:
      res.tpl_ms = r.f64();
      break;
    case CellType::App:
      res.app_s = r.f64();
      break;
    case CellType::Sched: {
      sched::ScheduleOutcome& s = res.sched.schedule;
      const std::uint32_t njobs = r.u32();
      if (njobs > (1u << 24)) return std::nullopt;
      s.jobs.reserve(njobs);
      for (std::uint32_t i = 0; i < njobs && !r.failed(); ++i) {
        sched::JobStats j;
        j.id = r.i32();
        j.user = r.i32();
        j.ranks = r.i32();
        j.base_node = r.i32();
        const std::uint8_t tool = r.u8(), state = r.u8();
        if (tool > kMaxTool || state > 3) return std::nullopt;
        j.tool = static_cast<mp::ToolKind>(tool);
        j.state = static_cast<sched::JobState>(state);
        j.submit = sim::TimePoint{r.i64()};
        j.start = sim::TimePoint{r.i64()};
        j.complete = sim::TimePoint{r.i64()};
        j.transport = get_transport(r);
        s.jobs.push_back(j);
      }
      s.makespan = sim::Duration{r.i64()};
      s.utilization = r.f64();
      s.fairness = r.f64();
      s.completed = r.i32();
      s.rejected = r.i32();
      s.events = r.u64();
      s.messages = r.u64();
      s.payload_bytes = r.u64();
      s.transport = get_transport(r);
      s.injected.frames = r.i64();
      s.injected.drops = r.i64();
      s.injected.flap_drops = r.i64();
      s.injected.corruptions = r.i64();
      s.injected.duplicates = r.i64();
      s.injected.reorders = r.i64();
      const std::uint32_t ntools = r.u32();
      if (ntools > 16) return std::nullopt;
      res.sched.per_tool.reserve(ntools);
      for (std::uint32_t i = 0; i < ntools && !r.failed(); ++i) {
        ToolGoodput g;
        const std::uint8_t tool = r.u8();
        if (tool > kMaxTool) return std::nullopt;
        g.tool = static_cast<mp::ToolKind>(tool);
        g.completed = r.i32();
        g.mean_wait_ms = r.f64();
        g.mean_slowdown = r.f64();
        g.node_millis = r.f64();
        g.goodput = r.f64();
        res.sched.per_tool.push_back(g);
      }
      break;
    }
  }
  if (r.failed() || !r.exhausted()) return std::nullopt;
  return res;
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
