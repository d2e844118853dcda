// pdceval -- pdctrace: run one evaluation-grid cell with tracing enabled
// and export/report the resulting event stream.
//
//   pdctrace --tool p4 --platform ethernet --primitive sendrecv
//            --bytes 1 --procs 2 --json trace.json
//   pdctrace --tool pvm --platform fddi --app fft --procs 4 --report
//   pdctrace --trace-cell p4:ethernet:sendrecv:1:2 --json trace.json
//   pdctrace --sched --platform flat --nodes 16 --jobs 4 --json trace.json
//   pdctrace --validate trace.json
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cell_args.hpp"
#include "eval/trace_cell.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"

namespace {

using pdc::eval::CellStatus;
using pdc::eval::CellType;
using pdc::tools::parse_app;
using pdc::tools::parse_count;
using pdc::tools::parse_fault_rate;
using pdc::tools::parse_number;
using pdc::tools::parse_platform;
using pdc::tools::parse_primitive;
using pdc::tools::parse_tool;

struct Options {
  pdc::eval::CellSpec cell;
  pdc::eval::TraceCapture capture;
  std::string json_path;
  std::string csv_path;
  std::string validate_path;
  bool report{true};
  double drop{0.0};
  double corrupt{0.0};
  double duplicate{0.0};
  std::uint64_t seed{0xFA17};
  bool have_seed{false};
};

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "pdctrace: trace one evaluation cell\n"
               "  --tool p4|pvm|express         message-passing tool\n"
               "  --platform %s\n"
               "  --primitive sendrecv|broadcast|ring|globalsum   (TPL cell)\n"
               "  --app jpeg|fft|mc|psrs                          (APL cell)\n"
               "  --sched                       scheduling cell, with pdcsched flags\n"
               "    --nodes N --jobs N --rate R --users N --policy backfill|fifo --aging P\n"
               "  --bytes N --procs N --ints N  cell size parameters (procs > 0)\n"
               "  --drop R --corrupt R --dup R --seed S   fault plan (rates in [0, 1));\n"
               "                                --seed also seeds a --sched workload\n"
               "  --buffer N                    trace ring capacity (records, > 0)\n"
               "  --categories LIST             default|all|mp,net,transport,sim,host,sched\n"
               "  --json FILE --csv FILE        exporters\n"
               "  --report / --no-report        text analysis (default on)\n"
               "  --trace-cell T:P:W:B:N        compact cell spec (tool:platform:\n"
               "                                primitive-or-app:bytes:procs)\n"
               "  --validate FILE               JSON-shape check an exported trace\n",
               pdc::tools::kPlatformNames);
  std::exit(code);
}

[[nodiscard]] bool parse_categories(const std::string& list, std::uint32_t& mask) {
  mask = 0;
  std::stringstream ss(list);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (part == "default") mask |= pdc::trace::kDefaultMask;
    else if (part == "all") mask |= pdc::trace::kAllMask;
    else if (part == "mp") mask |= pdc::trace::kCatMp;
    else if (part == "net") mask |= pdc::trace::kCatNet;
    else if (part == "transport") mask |= pdc::trace::kCatTransport;
    else if (part == "sim") mask |= pdc::trace::kCatSim;
    else if (part == "host") mask |= pdc::trace::kCatHost;
    else if (part == "sched") mask |= pdc::trace::kCatSched;
    else return false;
  }
  return mask != 0;
}

[[nodiscard]] bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

int run_validate(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "pdctrace: cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const auto res = pdc::trace::validate_perfetto_json(buf.str());
  if (!res.ok) {
    std::fprintf(stderr, "pdctrace: %s: INVALID: %s\n", path.c_str(), res.error.c_str());
    return 1;
  }
  std::printf("pdctrace: %s: ok (%zu events, %zu flow events", path.c_str(), res.events,
              res.flows);
  if (res.jobs > 0) std::printf(", %zu job slices", res.jobs);
  std::printf(")\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  pdc::eval::TplCell& tpl = o.cell.tpl;
  pdc::eval::AppCell& app = o.cell.app;
  pdc::eval::SchedCell& sched = o.cell.sched;
  tpl.bytes = 1;
  tpl.procs = 2;
  app.procs = 2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pdctrace: %s needs a value\n", arg.c_str());
        usage(2);
      }
      return argv[++i];
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--tool") { const auto v = next(); ok = parse_tool(v, tpl.tool); app.tool = tpl.tool; }
    else if (arg == "--platform") {
      ok = parse_platform(next(), tpl.platform);
      app.platform = tpl.platform;
      sched.platform = tpl.platform;
    }
    else if (arg == "--primitive") { ok = parse_primitive(next(), tpl.primitive); o.cell.type = CellType::Tpl; }
    else if (arg == "--app") { ok = parse_app(next(), app.app); o.cell.type = CellType::App; }
    else if (arg == "--sched") o.cell.type = CellType::Sched;
    else if (pdc::tools::parse_sched_flag(arg, next, sched, ok)) {}
    else if (arg == "--bytes") ok = parse_number(next(), tpl.bytes) && tpl.bytes >= 0;
    else if (arg == "--procs") { ok = parse_count(next(), tpl.procs); app.procs = tpl.procs; }
    else if (arg == "--ints") ok = parse_number(next(), tpl.global_sum_ints) && tpl.global_sum_ints >= 0;
    else if (arg == "--drop") ok = parse_fault_rate(next(), o.drop);
    else if (arg == "--corrupt") ok = parse_fault_rate(next(), o.corrupt);
    else if (arg == "--dup") ok = parse_fault_rate(next(), o.duplicate);
    else if (arg == "--seed") { ok = pdc::tools::parse_seed(next(), o.seed); o.have_seed = true; }
    else if (arg == "--buffer") {
      std::int64_t capacity = 0;
      ok = parse_number(next(), capacity) && capacity > 0;
      o.capture.capacity = static_cast<std::size_t>(capacity);
    }
    else if (arg == "--categories") ok = parse_categories(next(), o.capture.mask);
    else if (arg == "--json") o.json_path = next();
    else if (arg == "--csv") o.csv_path = next();
    else if (arg == "--report") o.report = true;
    else if (arg == "--no-report") o.report = false;
    else if (arg == "--trace-cell") ok = pdc::tools::parse_cell_spec(next(), o.cell);
    else if (arg == "--validate") o.validate_path = next();
    else {
      std::fprintf(stderr, "pdctrace: unknown option %s\n", arg.c_str());
      usage(2);
    }
    if (!ok) {
      std::fprintf(stderr, "pdctrace: bad value for %s\n", arg.c_str());
      usage(2);
    }
  }

  if (!o.validate_path.empty()) return run_validate(o.validate_path);

  if (o.drop > 0.0 || o.corrupt > 0.0 || o.duplicate > 0.0) {
    const auto plan =
        pdc::fault::FaultPlan::uniform(o.drop, o.corrupt, o.duplicate, 0.0,
                                       pdc::sim::microseconds(500), o.seed);
    tpl.faults = plan;
    app.faults = plan;
    sched.faults = plan;
  }
  if (o.cell.type == CellType::Sched) {
    if (!pdc::tools::is_cluster_platform(sched.platform)) {
      std::fprintf(stderr,
                   "pdctrace: --sched needs a cluster platform (flat|fattree|dragonfly)\n");
      usage(2);
    }
    if (o.have_seed) sched.seed = o.seed;
  }

  // Invalid cell shapes (too many procs for the platform, bad sizes) come
  // back as Status::Error, and an oversized --buffer throws from the ring
  // allocation; a CLI reports both, it doesn't abort.
  pdc::eval::TracedCell traced;
  try {
    traced = pdc::eval::run_cell_traced(o.cell, o.capture);
  } catch (const std::exception& e) {
    traced.result.status = CellStatus::Error;
    traced.result.error = e.what();
  }
  const pdc::eval::CellResult& res = traced.result;
  if (res.status == CellStatus::Error) {
    std::fprintf(stderr, "pdctrace: cannot run cell: %s\n", res.error.c_str());
    return 2;
  }
  if (o.cell.type == CellType::Sched) {
    const pdc::sched::ScheduleOutcome& s = res.sched.schedule;
    std::printf("cell: %s, %d nodes, %d jobs -> completed %d rejected %d makespan %.3f ms\n",
                pdc::host::to_string(sched.platform), sched.nodes, sched.njobs, s.completed,
                s.rejected, s.makespan.millis());
  } else if (o.cell.type == CellType::App) {
    std::printf("cell: %s on %s, app %s, procs %d -> %.6f simulated s\n",
                pdc::mp::to_string(app.tool), pdc::host::to_string(app.platform),
                pdc::eval::to_string(app.app), app.procs, res.app_s);
  } else if (res.status == CellStatus::Unsupported) {
    std::printf("cell: %s on %s, %s: not available in this tool\n",
                pdc::mp::to_string(tpl.tool), pdc::host::to_string(tpl.platform),
                pdc::eval::to_string(tpl.primitive));
    return 0;
  } else {
    std::printf("cell: %s on %s, %s, %lld bytes, procs %d -> %.6f simulated ms\n",
                pdc::mp::to_string(tpl.tool), pdc::host::to_string(tpl.platform),
                pdc::eval::to_string(tpl.primitive), static_cast<long long>(tpl.bytes),
                tpl.procs, res.tpl_ms);
  }
  const std::vector<pdc::trace::Record>& records = traced.records;
  std::printf("trace: %llu records captured, %llu dropped (ring capacity %zu)\n",
              static_cast<unsigned long long>(traced.stats.emitted - traced.stats.dropped),
              static_cast<unsigned long long>(traced.stats.dropped), traced.capacity);

  if (!o.json_path.empty()) {
    const std::string json = pdc::trace::export_perfetto_json(records);
    if (!write_file(o.json_path, json)) {
      std::fprintf(stderr, "pdctrace: cannot write %s\n", o.json_path.c_str());
      return 2;
    }
    const auto check = pdc::trace::validate_perfetto_json(json);
    std::printf("wrote %s (%zu events%s)\n", o.json_path.c_str(), check.events,
                check.ok ? "" : ", VALIDATION FAILED");
    if (!check.ok) {
      std::fprintf(stderr, "pdctrace: internal error: %s\n", check.error.c_str());
      return 1;
    }
  }
  if (!o.csv_path.empty()) {
    if (!write_file(o.csv_path, pdc::trace::export_csv(records))) {
      std::fprintf(stderr, "pdctrace: cannot write %s\n", o.csv_path.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu rows)\n", o.csv_path.c_str(), records.size());
  }
  if (o.report && !records.empty()) {
    std::fputs(pdc::trace::text_report(records).c_str(), stdout);
  }
  return 0;
}
