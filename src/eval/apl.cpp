#include "eval/apl.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "apps/fft/parallel.hpp"
#include "apps/jpeg/parallel.hpp"
#include "apps/mc/montecarlo.hpp"
#include "apps/sort/psrs.hpp"
#include "mp/api.hpp"

namespace pdc::eval {

const char* to_string(AppKind app) {
  switch (app) {
    case AppKind::Jpeg:
      return "JPEG";
    case AppKind::Fft2d:
      return "2D-FFT";
    case AppKind::MonteCarlo:
      return "MonteCarlo";
    case AppKind::Psrs:
      return "Sorting";
  }
  return "?";
}

const std::vector<AppKind>& all_apps() {
  static const std::vector<AppKind> kAll = {AppKind::Fft2d, AppKind::Jpeg,
                                            AppKind::MonteCarlo, AppKind::Psrs};
  return kAll;
}

namespace {

/// The JPEG input is deterministic and reused across every run; building it
/// per run would only add host wall time, not change simulated results.
/// The map mutex is held only long enough to find/insert the slot (node
/// references stay valid across later insertions); the image itself is
/// built under a per-key once_flag, so parallel sweep cells first-touching
/// *different* sizes construct concurrently instead of serialising on one
/// lock.
const apps::jpeg::Image& cached_image(int size, std::uint64_t seed) {
  struct Slot {
    std::once_flag once;
    apps::jpeg::Image image;
  };
  static std::mutex mu;
  static std::map<std::pair<int, std::uint64_t>, Slot> cache;
  Slot* slot;
  {
    const std::scoped_lock lock(mu);
    slot = &cache[{size, seed}];
  }
  std::call_once(slot->once,
                 [&] { slot->image = apps::jpeg::make_test_image(size, size, seed); });
  return slot->image;
}

}  // namespace

double app_time_s(host::PlatformId platform, mp::ToolKind tool, AppKind app, int procs,
                  const AplConfig& cfg, const fault::FaultPlan& faults) {
  mp::RankProgram program;
  switch (app) {
    case AppKind::Jpeg: {
      const auto& img = cached_image(cfg.image_size, cfg.seed);
      program = [&img, &cfg](mp::Communicator& c) -> sim::Task<void> {
        co_await apps::jpeg::compress_distributed(c, img, cfg.jpeg_quality, nullptr);
      };
      break;
    }
    case AppKind::Fft2d:
      program = [&cfg](mp::Communicator& c) -> sim::Task<void> {
        co_await apps::fft::fft2d_distributed(c, cfg.fft_n, cfg.seed, nullptr,
                                              /*gather=*/false);
      };
      break;
    case AppKind::MonteCarlo:
      program = [&cfg](mp::Communicator& c) -> sim::Task<void> {
        co_await apps::mc::integrate_distributed(c, cfg.mc_samples, cfg.mc_rounds, cfg.seed,
                                                 nullptr);
      };
      break;
    case AppKind::Psrs:
      program = [&cfg](mp::Communicator& c) -> sim::Task<void> {
        co_await apps::sort::psrs_distributed(c, cfg.sort_keys, cfg.seed, nullptr,
                                              /*gather=*/false);
      };
      break;
  }
  return mp::run_spmd(platform, procs, tool, program, faults).elapsed.seconds();
}

}  // namespace pdc::eval
