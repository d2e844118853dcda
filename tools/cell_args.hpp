// pdceval -- cell-spec argument parsing shared by the CLIs.
//
// pdctrace, pdcsched and pdceval all turn the same flag vocabulary
// (tool / platform / primitive / app names, compact T:P:W:B:N cell
// specs, scheduling-cell flags) into cell structs; this header is the one
// copy of that mapping. Platform names cover both the paper's six hosts
// and the three synthetic cluster fabrics -- tools that only accept a subset
// (pdcsched wants a cluster) check with is_cluster_platform() after
// parsing rather than keeping a private name table.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "eval/cell.hpp"

namespace pdc::tools {

[[nodiscard]] inline bool parse_tool(const std::string& s, mp::ToolKind& out) {
  if (s == "p4") out = mp::ToolKind::P4;
  else if (s == "pvm") out = mp::ToolKind::Pvm;
  else if (s == "express") out = mp::ToolKind::Express;
  else return false;
  return true;
}

[[nodiscard]] inline bool parse_platform(const std::string& s, host::PlatformId& out) {
  using host::PlatformId;
  if (s == "ethernet") out = PlatformId::SunEthernet;
  else if (s == "atmlan") out = PlatformId::SunAtmLan;
  else if (s == "atmwan") out = PlatformId::SunAtmWan;
  else if (s == "fddi") out = PlatformId::AlphaFddi;
  else if (s == "sp1switch") out = PlatformId::Sp1Switch;
  else if (s == "sp1ethernet") out = PlatformId::Sp1Ethernet;
  else if (s == "flat") out = PlatformId::ClusterFlat;
  else if (s == "fattree") out = PlatformId::ClusterFatTree;
  else if (s == "dragonfly") out = PlatformId::ClusterDragonfly;
  else return false;
  return true;
}

[[nodiscard]] inline bool is_cluster_platform(host::PlatformId p) {
  return p == host::PlatformId::ClusterFlat || p == host::PlatformId::ClusterFatTree ||
         p == host::PlatformId::ClusterDragonfly;
}

inline constexpr const char* kPlatformNames =
    "ethernet|atmlan|atmwan|fddi|sp1switch|sp1ethernet|flat|fattree|dragonfly";

[[nodiscard]] inline bool parse_primitive(const std::string& s, eval::Primitive& out) {
  using eval::Primitive;
  if (s == "sendrecv") out = Primitive::SendRecv;
  else if (s == "broadcast") out = Primitive::Broadcast;
  else if (s == "ring") out = Primitive::Ring;
  else if (s == "globalsum") out = Primitive::GlobalSum;
  else return false;
  return true;
}

[[nodiscard]] inline bool parse_app(const std::string& s, eval::AppKind& out) {
  using eval::AppKind;
  if (s == "jpeg") out = AppKind::Jpeg;
  else if (s == "fft") out = AppKind::Fft2d;
  else if (s == "mc") out = AppKind::MonteCarlo;
  else if (s == "psrs") out = AppKind::Psrs;
  else return false;
  return true;
}

/// Strict decimal parse of the whole string; false on any non-numeric
/// byte (atoll-style silent zeroes would turn a typo into a degenerate
/// cell spec instead of a usage error).
[[nodiscard]] inline bool parse_number(const std::string& s, std::int64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

/// Strict parse of the whole string as a finite double (std::from_chars:
/// no leading space or '+', no trailing bytes, no inf or nan). atof-style
/// parsing turned "abc" into 0 and "1.5x" into 1.5 without a word.
[[nodiscard]] inline bool parse_double(const std::string& s, double& out) {
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size() || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// A count flag (--procs, --nodes, --jobs, --users): an integer in
/// [1, INT_MAX].
[[nodiscard]] inline bool parse_count(const std::string& s, int& out) {
  std::int64_t v = 0;
  if (!parse_number(s, v) || v <= 0 || v > std::numeric_limits<int>::max()) return false;
  out = static_cast<int>(v);
  return true;
}

/// A fault rate (--drop, --corrupt, --dup): a probability in [0, 1).
[[nodiscard]] inline bool parse_fault_rate(const std::string& s, double& out) {
  double v = 0.0;
  if (!parse_double(s, v) || v < 0.0 || v >= 1.0) return false;
  out = v;
  return true;
}

/// A seed: decimal, or hexadecimal after a 0x prefix (the fault plan's
/// default is spelled 0xFA17).
[[nodiscard]] inline bool parse_seed(const std::string& s, std::uint64_t& out) {
  const bool hex = s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data() + (hex ? 2 : 0), s.data() + s.size(), v, hex ? 16 : 10);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return false;
  out = v;
  return true;
}

/// Sweep ranges for bytes / procs / ints axes:
///
///   "4096"          one value
///   "2..8x2"        linear:    2, 4, 6, 8         (step 2)
///   "256..4096*4"   geometric: 256, 1024, 4096    (factor 4)
///
/// Endpoints are inclusive; the walk stops at the last value <= hi. Every
/// number is a strict full-string std::from_chars parse, and the range is
/// rejected (false, `out` untouched) when lo > hi, the step is < 1, the
/// factor is < 2, a geometric range starts at 0, the walk would overflow
/// int64, or the expansion exceeds kMaxRangeValues elements -- a typo'd
/// "1..1000000000x1" should be a usage error, not a 8 GB vector.
inline constexpr std::size_t kMaxRangeValues = 1 << 16;

[[nodiscard]] inline bool parse_range(const std::string& s, std::vector<std::int64_t>& out) {
  const std::size_t dots = s.find("..");
  std::int64_t lo = 0;
  if (dots == std::string::npos) {
    if (!parse_number(s, lo) || lo < 0) return false;
    out.assign(1, lo);
    return true;
  }
  const std::string head = s.substr(0, dots);
  const std::string tail = s.substr(dots + 2);
  const std::size_t sep = tail.find_first_of("x*");
  if (sep == std::string::npos) return false;
  const bool geometric = tail[sep] == '*';
  std::int64_t hi = 0;
  std::int64_t step = 0;
  if (!parse_number(head, lo) || !parse_number(tail.substr(0, sep), hi) ||
      !parse_number(tail.substr(sep + 1), step)) {
    return false;
  }
  if (lo < 0 || lo > hi) return false;
  if (geometric ? (step < 2 || lo == 0) : step < 1) return false;
  std::vector<std::int64_t> vals;
  for (std::int64_t v = lo; v <= hi;) {
    if (vals.size() >= kMaxRangeValues) return false;
    vals.push_back(v);
    if (geometric) {
      if (v > hi / step) break;  // next value would pass hi (or overflow)
      v *= step;
    } else {
      if (step > hi - v) break;
      v += step;
    }
  }
  out = std::move(vals);
  return true;
}

/// The scheduling-cell flags of pdcsched, pdceval --sched and pdctrace
/// --sched: --nodes --jobs --rate --users --policy --aging. Returns false
/// when `arg` is none of them. Otherwise parses the flag's value, taken
/// from `value()`, into `cell` and returns true, with `ok` false on a bad
/// value.
template <class Value>
[[nodiscard]] bool parse_sched_flag(const std::string& arg, Value&& value, eval::SchedCell& cell,
                                    bool& ok) {
  if (arg == "--nodes") ok = parse_count(value(), cell.nodes);
  else if (arg == "--jobs") ok = parse_count(value(), cell.njobs);
  else if (arg == "--rate") {
    ok = parse_double(value(), cell.arrival_rate_hz) && cell.arrival_rate_hz > 0.0;
  }
  else if (arg == "--users") ok = parse_count(value(), cell.users);
  else if (arg == "--policy") {
    const std::string p = value();
    ok = p == "backfill" || p == "fifo";
    if (ok) cell.policy.backfill = p == "backfill";
  } else if (arg == "--aging") {
    ok = parse_number(value(), cell.policy.aging_per_sec) && cell.policy.aging_per_sec >= 0;
  } else {
    return false;
  }
  return true;
}

/// tool:platform:primitive-or-app:bytes:procs ("p4:ethernet:sendrecv:1:2").
/// Empty trailing fields keep whatever defaults the spec carries in. The
/// primitive-or-app field sets `spec.type` (Tpl or App); tool, platform
/// and procs land in both branches, so a later --primitive or --app flag
/// switches the kind without losing them.
[[nodiscard]] inline bool parse_cell_spec(const std::string& text, eval::CellSpec& spec) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ':')) parts.push_back(part);
  if (parts.size() < 3 || parts.size() > 5) return false;
  if (!parse_tool(parts[0], spec.tpl.tool)) return false;
  if (!parse_platform(parts[1], spec.tpl.platform)) return false;
  if (parse_primitive(parts[2], spec.tpl.primitive)) {
    spec.type = eval::CellType::Tpl;
  } else if (parse_app(parts[2], spec.app.app)) {
    spec.type = eval::CellType::App;
  } else {
    return false;
  }
  spec.app.tool = spec.tpl.tool;
  spec.app.platform = spec.tpl.platform;
  if (parts.size() > 3 && !parts[3].empty()) {
    if (!parse_number(parts[3], spec.tpl.bytes) || spec.tpl.bytes < 0) return false;
  }
  if (parts.size() > 4 && !parts[4].empty()) {
    if (!parse_count(parts[4], spec.tpl.procs)) return false;
    spec.app.procs = spec.tpl.procs;
  }
  return true;
}

}  // namespace pdc::tools
