// pdceval -- pdceval: client for the pdcevald evaluation service.
//
//   pdceval --tool p4 --platform ethernet --primitive sendrecv --bytes 4096
//   pdceval --cell pvm:fddi:fft::4
//   pdceval --sched --platform flat --nodes 64 --jobs 24
//   pdceval --warm table3        # execute-and-cache the Table 3 grid
//   pdceval --stats
//   pdceval --invalidate --cell p4:ethernet:sendrecv:1:2
//   pdceval --invalidate-all
//
// --bytes / --procs / --ints also take sweep ranges ("256..16384*2"
// geometric, "2..8x2" linear); more than one resulting cell turns the
// lookup into one batched sweep frame, and `--warm grid` execute-and-
// caches the same cross-product. --json prints every mode's answer as a
// JSON value for scripting (same schema pdcmodel consumes).
//
// Every answer is printed with its origin -- cache, computed, or
// negative-cache -- so scripts (and the CI smoke job) can assert that a
// repeated sweep is served from memory rather than re-simulated.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "cell_args.hpp"
#include "evald/client.hpp"

namespace {

using pdc::eval::CellSpec;
using pdc::eval::CellStatus;
using pdc::evald::Origin;

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "pdceval: look up evaluation cells in a pdcevald daemon\n"
               "  --server PATH            daemon socket (default /tmp/pdcevald.sock)\n"
               "  --tool p4|pvm|express    cell flags, as pdctrace\n"
               "  --platform %s\n"
               "  --primitive sendrecv|broadcast|ring|globalsum   (TPL cell)\n"
               "  --app jpeg|fft|mc|psrs                          (APL cell)\n"
               "  --bytes R --procs R --ints R\n"
               "      R = N, N0..N1xSTEP (linear) or N0..N1*K (geometric);\n"
               "      >1 resulting cell runs as one batched sweep\n"
               "  --drop R --corrupt R --dup R --seed S           fault plan\n"
               "  --cell T:P:W:B:N         compact cell spec\n"
               "  --sched                  scheduling cell, with pdcsched flags\n"
               "    --nodes N --jobs N --rate R --users N --policy backfill|fifo --aging P\n"
               "  --warm table3            execute-and-cache the Table 3 grid\n"
               "  --warm grid              execute-and-cache the --bytes/--procs/--ints grid\n"
               "  --json                   print answers as JSON (cells, sweeps, stats)\n"
               "  --stats                  print daemon counters\n"
               "  --invalidate             drop the selected cell from the store\n"
               "  --invalidate-all         drop the whole store\n"
               "  --ping                   liveness probe\n",
               pdc::tools::kPlatformNames);
  std::exit(code);
}

const char* origin_name(Origin o) {
  switch (o) {
    case Origin::Cache: return "cache";
    case Origin::Computed: return "computed";
    case Origin::NegativeCache: return "negative-cache";
  }
  return "?";
}

void print_outcome(const CellSpec& spec, const pdc::evald::Client::Outcome& out) {
  const pdc::eval::CellResult& r = out.result;
  switch (r.status) {
    case CellStatus::Error:
      std::printf("[%s] error: %s\n", origin_name(out.origin), r.error.c_str());
      return;
    case CellStatus::Unsupported:
      std::printf("[%s] not available in this tool\n", origin_name(out.origin));
      return;
    case CellStatus::Ok:
      break;
  }
  switch (spec.type) {
    case pdc::eval::CellType::Tpl:
      std::printf("[%s] %s on %s, %s, %lld bytes, procs %d -> %.6f simulated ms\n",
                  origin_name(out.origin), pdc::mp::to_string(spec.tpl.tool),
                  pdc::host::to_string(spec.tpl.platform),
                  pdc::eval::to_string(spec.tpl.primitive),
                  static_cast<long long>(spec.tpl.bytes), spec.tpl.procs, r.tpl_ms);
      break;
    case pdc::eval::CellType::App:
      std::printf("[%s] %s on %s, app %s, procs %d -> %.6f simulated s\n",
                  origin_name(out.origin), pdc::mp::to_string(spec.app.tool),
                  pdc::host::to_string(spec.app.platform), pdc::eval::to_string(spec.app.app),
                  spec.app.procs, r.app_s);
      break;
    case pdc::eval::CellType::Sched: {
      const pdc::sched::ScheduleOutcome& s = r.sched.schedule;
      std::printf("[%s] %s, %d nodes, %d jobs -> completed %d rejected %d makespan %.3f ms "
                  "utilization %.1f%%\n",
                  origin_name(out.origin), pdc::host::to_string(spec.sched.platform),
                  spec.sched.nodes, spec.sched.njobs, s.completed, s.rejected,
                  s.makespan.millis(), 100.0 * s.utilization);
      break;
    }
  }
}

// -- JSON output (--json) ----------------------------------------------------
//
// All names and enum strings here are shell-safe tokens, so no escaping is
// needed; the shape is validated by trace::validate_json in the tests.

std::string spec_json(const pdc::eval::CellSpec& spec) {
  char buf[256];
  switch (spec.type) {
    case pdc::eval::CellType::Tpl:
      std::snprintf(buf, sizeof buf,
                    "{\"type\":\"tpl\",\"tool\":\"%s\",\"platform\":\"%s\","
                    "\"primitive\":\"%s\",\"bytes\":%lld,\"procs\":%d,\"ints\":%lld}",
                    pdc::mp::to_string(spec.tpl.tool), pdc::host::to_string(spec.tpl.platform),
                    pdc::eval::to_string(spec.tpl.primitive),
                    static_cast<long long>(spec.tpl.bytes), spec.tpl.procs,
                    static_cast<long long>(spec.tpl.global_sum_ints));
      break;
    case pdc::eval::CellType::App:
      std::snprintf(buf, sizeof buf,
                    "{\"type\":\"app\",\"tool\":\"%s\",\"platform\":\"%s\","
                    "\"app\":\"%s\",\"procs\":%d}",
                    pdc::mp::to_string(spec.app.tool), pdc::host::to_string(spec.app.platform),
                    pdc::eval::to_string(spec.app.app), spec.app.procs);
      break;
    case pdc::eval::CellType::Sched:
      std::snprintf(buf, sizeof buf,
                    "{\"type\":\"sched\",\"platform\":\"%s\",\"nodes\":%d,\"jobs\":%d}",
                    pdc::host::to_string(spec.sched.platform), spec.sched.nodes,
                    spec.sched.njobs);
      break;
  }
  return buf;
}

std::string outcome_json(const pdc::eval::CellSpec& spec,
                         const pdc::evald::Client::Outcome& out) {
  std::string s = "{\"spec\":" + spec_json(spec) + ",\"origin\":\"";
  s += origin_name(out.origin);
  s += "\",\"status\":\"";
  const pdc::eval::CellResult& r = out.result;
  char buf[160];
  switch (r.status) {
    case CellStatus::Error: return s + "error\"}";
    case CellStatus::Unsupported: return s + "unsupported\"}";
    case CellStatus::Ok: break;
  }
  s += "ok\",";
  switch (spec.type) {
    case pdc::eval::CellType::Tpl:
      std::snprintf(buf, sizeof buf, "\"ms\":%.17g}", r.tpl_ms);
      break;
    case pdc::eval::CellType::App:
      std::snprintf(buf, sizeof buf, "\"s\":%.17g}", r.app_s);
      break;
    case pdc::eval::CellType::Sched:
      std::snprintf(buf, sizeof buf,
                    "\"completed\":%d,\"rejected\":%d,\"makespan_ms\":%.17g,"
                    "\"utilization\":%.17g}",
                    r.sched.schedule.completed, r.sched.schedule.rejected,
                    r.sched.schedule.makespan.millis(), r.sched.schedule.utilization);
      break;
  }
  return s + buf;
}

std::string stats_json(const pdc::evald::DaemonStats& s) {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"model_version\":%llu,\"entries\":%llu,\"negative_entries\":%llu,"
      "\"hits\":%llu,\"negative_hits\":%llu,\"misses\":%llu,\"inserts\":%llu,"
      "\"invalidated\":%llu,\"log_bytes\":%llu,\"recovered\":%llu,\"requests\":%llu,"
      "\"cells_served\":%llu,\"cells_computed\":%llu,\"connections\":%llu,"
      "\"frame_errors\":%llu}",
      static_cast<unsigned long long>(s.model_version),
      static_cast<unsigned long long>(s.entries),
      static_cast<unsigned long long>(s.negative_entries),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.negative_hits),
      static_cast<unsigned long long>(s.misses),
      static_cast<unsigned long long>(s.inserts),
      static_cast<unsigned long long>(s.invalidated),
      static_cast<unsigned long long>(s.log_bytes),
      static_cast<unsigned long long>(s.recovered),
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.cells_served),
      static_cast<unsigned long long>(s.cells_computed),
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.frame_errors));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string server = "/tmp/pdcevald.sock";
  CellSpec cell;
  pdc::eval::TplCell& tpl = cell.tpl;
  tpl.bytes = 1;
  tpl.procs = 2;
  pdc::eval::AppCell& app = cell.app;
  app.procs = 2;
  pdc::eval::SchedCell& sched = cell.sched;
  bool is_sched = false;
  bool have_cell = false;
  bool do_stats = false;
  bool do_ping = false;
  bool do_invalidate = false;
  bool do_invalidate_all = false;
  std::string warm_sweep;
  double drop = 0.0, corrupt = 0.0, duplicate = 0.0;
  std::uint64_t seed = 0xFA17;
  bool have_seed = false;
  bool json = false;
  std::vector<std::int64_t> bytes_range{tpl.bytes};
  std::vector<std::int64_t> procs_range{tpl.procs};
  std::vector<std::int64_t> ints_range{tpl.global_sum_ints};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "pdceval: %s needs a value\n", arg.c_str());
        usage(2);
      }
      return argv[++i];
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--server") server = value();
    else if (arg == "--tool") { ok = pdc::tools::parse_tool(value(), tpl.tool); app.tool = tpl.tool; have_cell = true; }
    else if (arg == "--platform") {
      ok = pdc::tools::parse_platform(value(), tpl.platform);
      app.platform = tpl.platform;
      sched.platform = tpl.platform;
      have_cell = true;
    }
    else if (arg == "--primitive") { ok = pdc::tools::parse_primitive(value(), tpl.primitive); cell.type = pdc::eval::CellType::Tpl; have_cell = true; }
    else if (arg == "--app") { ok = pdc::tools::parse_app(value(), app.app); cell.type = pdc::eval::CellType::App; have_cell = true; }
    else if (arg == "--bytes") { ok = pdc::tools::parse_range(value(), bytes_range); have_cell = true; }
    else if (arg == "--procs") {
      ok = pdc::tools::parse_range(value(), procs_range);
      for (std::int64_t p : procs_range) {
        ok = ok && p > 0 && p <= std::numeric_limits<int>::max();
      }
      have_cell = true;
    }
    else if (arg == "--ints") { ok = pdc::tools::parse_range(value(), ints_range); have_cell = true; }
    else if (arg == "--drop") ok = pdc::tools::parse_fault_rate(value(), drop);
    else if (arg == "--corrupt") ok = pdc::tools::parse_fault_rate(value(), corrupt);
    else if (arg == "--dup") ok = pdc::tools::parse_fault_rate(value(), duplicate);
    else if (arg == "--seed") { ok = pdc::tools::parse_seed(value(), seed); have_seed = true; }
    else if (arg == "--cell") {
      ok = pdc::tools::parse_cell_spec(value(), cell);
      if (ok) {
        // The compact spec carries single values; reset the range axes so
        // they take effect (a later --bytes/--procs/--ints still overrides).
        bytes_range = {tpl.bytes};
        procs_range = {tpl.procs};
        ints_range = {tpl.global_sum_ints};
      }
      have_cell = true;
    }
    else if (arg == "--sched") { is_sched = true; have_cell = true; }
    else if (pdc::tools::parse_sched_flag(arg, value, sched, ok)) {}
    else if (arg == "--warm") warm_sweep = value();
    else if (arg == "--json") json = true;
    else if (arg == "--stats") do_stats = true;
    else if (arg == "--invalidate") do_invalidate = true;
    else if (arg == "--invalidate-all") do_invalidate_all = true;
    else if (arg == "--ping") do_ping = true;
    else {
      std::fprintf(stderr, "pdceval: unknown option %s\n", arg.c_str());
      usage(2);
    }
    if (!ok) {
      std::fprintf(stderr, "pdceval: bad value for %s\n", arg.c_str());
      usage(2);
    }
  }

  if (drop > 0.0 || corrupt > 0.0 || duplicate > 0.0) {
    const auto plan = pdc::fault::FaultPlan::uniform(drop, corrupt, duplicate, 0.0,
                                                     pdc::sim::microseconds(500), seed);
    tpl.faults = plan;
    app.faults = plan;
    sched.faults = plan;
  }
  if (is_sched && have_seed) sched.seed = seed;
  if (is_sched && !pdc::tools::is_cluster_platform(sched.platform)) {
    std::fprintf(stderr, "pdceval: --sched needs a cluster platform (flat|fattree|dragonfly)\n");
    usage(2);
  }

  // Cross-product of the range axes, in axis-major order (bytes, then
  // ints, then procs) so sweep output order is reproducible.
  std::vector<CellSpec> specs;
  if (is_sched) {
    specs.push_back(CellSpec::of(sched));
  } else if (cell.type == pdc::eval::CellType::App) {
    for (std::int64_t p : procs_range) {
      app.procs = static_cast<int>(p);
      specs.push_back(CellSpec::of(app));
    }
  } else {
    for (std::int64_t b : bytes_range) {
      for (std::int64_t n : ints_range) {
        for (std::int64_t p : procs_range) {
          tpl.bytes = b;
          tpl.global_sum_ints = n;
          tpl.procs = static_cast<int>(p);
          specs.push_back(CellSpec::of(tpl));
        }
      }
    }
  }

  try {
    pdc::evald::Client client(server);

    if (do_ping) {
      std::printf(client.ping() ? "pong\n" : "no pong\n");
      return 0;
    }
    if (do_invalidate_all) {
      std::printf("invalidated %llu entries\n",
                  static_cast<unsigned long long>(client.invalidate_all()));
      return 0;
    }
    if (do_invalidate) {
      if (!have_cell || specs.size() != 1) {
        std::fprintf(stderr, "pdceval: --invalidate needs exactly one cell spec\n");
        usage(2);
      }
      std::printf(client.invalidate(specs[0]) ? "invalidated\n" : "not cached\n");
      return 0;
    }
    if (!warm_sweep.empty()) {
      if (warm_sweep != "table3" && warm_sweep != "grid") {
        std::fprintf(stderr, "pdceval: unknown sweep %s (try table3 or grid)\n",
                     warm_sweep.c_str());
        usage(2);
      }
      if (warm_sweep == "grid" && !have_cell) {
        std::fprintf(stderr, "pdceval: --warm grid needs cell flags with ranges\n");
        usage(2);
      }
      const std::vector<CellSpec> grid =
          warm_sweep == "table3" ? pdc::eval::table3_grid() : specs;
      const std::vector<Origin> origins = client.warm(grid);
      std::size_t cached = 0, computed = 0, negative = 0;
      for (const Origin o : origins) {
        if (o == Origin::Computed) ++computed;
        else if (o == Origin::NegativeCache) ++negative;
        else ++cached;
      }
      if (json) {
        std::printf("{\"warm\":\"%s\",\"cells\":%zu,\"cached\":%zu,"
                    "\"negative_cached\":%zu,\"computed\":%zu}\n",
                    warm_sweep.c_str(), origins.size(), cached, negative, computed);
        return 0;
      }
      std::printf("warm %s: %zu cells, %zu cached, %zu negative-cached, %zu computed "
                  "(%.1f%% served from cache)\n",
                  warm_sweep.c_str(), origins.size(), cached, negative, computed,
                  origins.empty() ? 0.0
                                  : 100.0 * static_cast<double>(cached + negative) /
                                        static_cast<double>(origins.size()));
      return 0;
    }
    if (do_stats) {
      const pdc::evald::DaemonStats s = client.stats();
      if (json) {
        std::printf("%s\n", stats_json(s).c_str());
        return 0;
      }
      std::printf("model version  %llu\n", static_cast<unsigned long long>(s.model_version));
      std::printf("entries        %llu (%llu negative)\n",
                  static_cast<unsigned long long>(s.entries),
                  static_cast<unsigned long long>(s.negative_entries));
      std::printf("hits           %llu (%llu negative)\n",
                  static_cast<unsigned long long>(s.hits),
                  static_cast<unsigned long long>(s.negative_hits));
      std::printf("misses         %llu\n", static_cast<unsigned long long>(s.misses));
      std::printf("inserts        %llu\n", static_cast<unsigned long long>(s.inserts));
      std::printf("invalidated    %llu\n", static_cast<unsigned long long>(s.invalidated));
      std::printf("log bytes      %llu\n", static_cast<unsigned long long>(s.log_bytes));
      std::printf("recovered      %llu\n", static_cast<unsigned long long>(s.recovered));
      std::printf("requests       %llu\n", static_cast<unsigned long long>(s.requests));
      std::printf("cells served   %llu (%llu computed)\n",
                  static_cast<unsigned long long>(s.cells_served),
                  static_cast<unsigned long long>(s.cells_computed));
      std::printf("connections    %llu\n", static_cast<unsigned long long>(s.connections));
      std::printf("frame errors   %llu\n", static_cast<unsigned long long>(s.frame_errors));
      return 0;
    }
    if (!have_cell) {
      std::fprintf(stderr, "pdceval: nothing to do (give a cell, --warm, --stats or --ping)\n");
      usage(2);
    }
    if (specs.size() == 1) {
      const auto out = client.lookup(specs[0]);
      if (json) std::printf("%s\n", outcome_json(specs[0], out).c_str());
      else print_outcome(specs[0], out);
    } else {
      const std::vector<pdc::evald::Client::Outcome> outs = client.sweep(specs);
      if (json) {
        std::string doc = "[";
        for (std::size_t i = 0; i < outs.size(); ++i) {
          if (i > 0) doc += ',';
          doc += outcome_json(specs[i], outs[i]);
        }
        doc += "]";
        std::printf("%s\n", doc.c_str());
      } else {
        for (std::size_t i = 0; i < outs.size(); ++i) print_outcome(specs[i], outs[i]);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdceval: %s\n", e.what());
    return 1;
  }
  return 0;
}
