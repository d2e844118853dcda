#include "model/pattern_sim.hpp"

#include <stdexcept>
#include <vector>

#include "mp/api.hpp"
#include "mp/profile.hpp"

namespace pdc::model {

namespace {

constexpr int kTag = 1200;
constexpr int kStopTag = 1199;

/// The filler a pattern program sends: built once per run, immutable, so
/// every send and broadcast hop shares the one buffer.
[[nodiscard]] mp::Payload filler(std::int64_t bytes) {
  return mp::make_payload(mp::Bytes(static_cast<std::size_t>(bytes), std::byte{0x3C}));
}

}  // namespace

double pipeline_sim_ms(host::PlatformId platform, mp::ToolKind tool, int procs,
                       std::int64_t bytes, int items, double flops) {
  if (procs < 2) throw std::invalid_argument("pipeline_sim_ms: procs < 2");
  if (items < 1) throw std::invalid_argument("pipeline_sim_ms: items < 1");
  auto program = [data = filler(bytes), items, procs, flops](mp::Communicator& c)
      -> sim::Task<void> {
    const int rank = c.rank();
    for (int k = 0; k < items; ++k) {
      if (rank == 0) {
        co_await c.send(1, kTag + k, data);
      } else {
        mp::Message m = co_await c.recv(rank - 1, kTag + k);
        if (flops > 0.0) co_await c.compute_flops(flops);
        if (rank + 1 < procs) co_await c.send(rank + 1, kTag + k, m.data);
      }
    }
  };
  return mp::run_spmd(platform, procs, tool, program).elapsed.millis();
}

std::optional<double> mapreduce_sim_ms(host::PlatformId platform, mp::ToolKind tool,
                                       int procs, std::int64_t bytes, int tasks,
                                       std::int64_t ints, double flops) {
  if (procs < 2) throw std::invalid_argument("mapreduce_sim_ms: procs < 2");
  if (tasks < 1) throw std::invalid_argument("mapreduce_sim_ms: tasks < 1");
  if (mp::tool_profile(tool, platform).reduce_algo ==
      mp::ToolProfile::ReduceAlgo::Unsupported) {
    return std::nullopt;  // PVM: no global operation, same hole as global_sum_ms
  }
  // Every rank owns ceil(tasks/procs) map tasks; a map task is one
  // neighbour shift of the broadcast payload (all ranks shift
  // concurrently, so a wave costs one shift, and the waves serialise).
  const int waves = (tasks + procs - 1) / procs;
  auto program = [root_data = filler(bytes), waves, procs, ints, flops](mp::Communicator& c)
      -> sim::Task<void> {
    mp::Payload data;
    if (c.rank() == 0) data = root_data;
    co_await c.broadcast(0, data, kTag);
    const int next = (c.rank() + 1) % procs;
    const int prev = (c.rank() + procs - 1) % procs;
    for (int w = 0; w < waves; ++w) {
      co_await c.send(next, kTag + 1 + w, data);
      (void)co_await c.recv(prev, kTag + 1 + w);
      if (flops > 0.0) co_await c.compute_flops(flops);
    }
    std::vector<std::int32_t> v(static_cast<std::size_t>(ints), c.rank() + 1);
    co_await c.global_sum(v);
  };
  return mp::run_spmd(platform, procs, tool, program).elapsed.millis();
}

double taskpool_sim_ms(host::PlatformId platform, mp::ToolKind tool, int procs,
                       std::int64_t bytes, int tasks, double flops) {
  if (procs < 2) throw std::invalid_argument("taskpool_sim_ms: procs < 2");
  if (tasks < 1) throw std::invalid_argument("taskpool_sim_ms: tasks < 1");
  const int workers = procs - 1;
  auto program = [data = filler(bytes), tasks, workers, flops](mp::Communicator& c)
      -> sim::Task<void> {
    if (c.rank() == 0) {
      // Pool head: one task per worker up front, then demand-driven --
      // the next task goes to whichever worker's echo arrives first.
      int sent = 0, done = 0;
      for (int w = 1; w <= workers && sent < tasks; ++w, ++sent) {
        co_await c.send(w, kTag, data);
      }
      while (done < tasks) {
        mp::Message reply = co_await c.recv(mp::kAnySource, kTag);
        ++done;
        if (sent < tasks) {
          co_await c.send(reply.src, kTag, data);
          ++sent;
        }
      }
      for (int w = 1; w <= workers; ++w) {
        co_await c.send(w, kStopTag, mp::empty_payload());
      }
    } else {
      while (true) {
        mp::Message task = co_await c.recv(0, mp::kAnyTag);
        if (task.tag == kStopTag) break;
        if (flops > 0.0) co_await c.compute_flops(flops);
        co_await c.send(0, kTag, task.data);  // echo the payload back
      }
    }
  };
  return mp::run_spmd(platform, procs, tool, program).elapsed.millis();
}

}  // namespace pdc::model
