// pdceval -- pdcevald: the evaluation-as-a-service daemon.
//
//   pdcevald --socket /tmp/pdcevald.sock --store cells.pdce
//   pdcevald --socket /tmp/pdcevald.sock              # in-memory store
//
// Binds the Unix-domain socket, replays the persisted store (discarding
// it wholesale when it was written under a different model version), then
// serves pdceval clients until SIGINT/SIGTERM. Exit prints the final
// cache counters so a scripted run (CI smoke) can assert hit rates from
// the daemon side too.
#include <signal.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "cell_args.hpp"
#include "eval/cell.hpp"
#include "evald/server.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "pdcevald: memoizing evaluation daemon\n"
               "  --socket PATH    Unix-domain socket to serve on (default /tmp/pdcevald.sock)\n"
               "  --store PATH     persistent cell store file (default: in-memory only)\n"
               "  --model-version N  override the content-address version (testing)\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  pdc::evald::ServerConfig config;
  config.socket_path = "/tmp/pdcevald.sock";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--socket") config.socket_path = value();
    else if (arg == "--store") config.store_path = value();
    else if (arg == "--model-version") {
      if (!pdc::tools::parse_seed(value(), config.model_version)) {
        std::fprintf(stderr, "pdcevald: bad value for %s\n", arg.c_str());
        usage(2);
      }
    } else usage(2);
  }

  // Block the shutdown signals before any thread exists so the accept and
  // connection threads inherit the mask and sigwait() below is the only
  // consumer.
  sigset_t stop_set;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGINT);
  sigaddset(&stop_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_set, nullptr);

  try {
    pdc::evald::Server server(config);
    const pdc::evald::DaemonStats boot = server.stats();
    std::printf("pdcevald: serving on %s (store: %s, model version %llu",
                config.socket_path.c_str(),
                config.store_path.empty() ? "in-memory" : config.store_path.c_str(),
                static_cast<unsigned long long>(boot.model_version));
    if (boot.recovered > 0) {
      std::printf(", %llu cells recovered", static_cast<unsigned long long>(boot.recovered));
    }
    if (const std::uint64_t cut = server.store().stats().truncated_bytes; cut > 0) {
      std::printf(", %llu log bytes truncated at a torn or corrupt record",
                  static_cast<unsigned long long>(cut));
    }
    std::printf(")\n");
    std::fflush(stdout);
    server.start();

    int sig = 0;
    while (sigwait(&stop_set, &sig) != 0) {}
    std::printf("pdcevald: signal %d, shutting down\n", sig);
    server.stop();

    const pdc::evald::DaemonStats s = server.stats();
    std::printf("pdcevald: %llu requests, %llu cells served (%llu computed, %llu hits, "
                "%llu negative hits), %llu entries, %llu frame errors\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.cells_served),
                static_cast<unsigned long long>(s.cells_computed),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.negative_hits),
                static_cast<unsigned long long>(s.entries),
                static_cast<unsigned long long>(s.frame_errors));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdcevald: %s\n", e.what());
    return 1;
  }
  return 0;
}
