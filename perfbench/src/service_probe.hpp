// Measurement hooks shared by the two service workloads. They wrap the
// per-item stage callables handed to PipelineService (the only place the
// benchmark can observe the worker thread) and sample the plan in force.
//
// Untraced, only the sink is wrapped: one clock read per sink result gives
// the end-to-end latency from the root's scheduled due time. Traced, every
// stage is wrapped to time its self time and, at stage 0, the queue wait.
#pragma once

#include <pthread.h>
#include <time.h>

#include <any>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.hpp"
#include "runtime/pipeline_executor.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace runtime = ripple::runtime;
namespace service = ripple::service;

inline constexpr std::size_t kProbeStages = 4;

/// Per-shard probe state. Written only by the owning shard's worker thread
/// (after the generator published t0 and the schedule through the ingest
/// ring), read by the generator thread once the workers have gone idle.
struct ShardProbe {
  bool traced = false;
  WindowedSamples latency_ns;         ///< per sink result: due -> emission
  std::vector<double> queue_wait_ns;  ///< traced, per root: due -> stage 0
  std::vector<double> exec_ns;        ///< traced, per sink result
  std::array<std::int64_t, kProbeStages> stage_ns{};
  std::array<std::uint64_t, kProbeStages> stage_in{};
  std::array<std::uint64_t, kProbeStages> stage_out{};
  Digest outputs;  ///< sink outputs, when the workload keys them
  clockid_t worker_clock{};
  bool have_worker_clock = false;

  std::int64_t worker_cpu_ns() const {
    if (!have_worker_clock) return 0;
    timespec ts{};
    clock_gettime(worker_clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
};

/// Maps a root id to its due time and carries the per-shard probes.
struct ServiceProbe {
  /// Root id of a stage-0 input item / of a sink input item.
  std::function<std::uint64_t(const runtime::Item&)> root_of_input;
  std::function<std::uint64_t(const runtime::Item&)> root_of_sink_input;
  /// Optional digest key of one sink output (order-independent check).
  std::function<std::uint64_t(const runtime::Item&)> output_key;
  std::int64_t t0 = 0;                  ///< measurement start (wall ns)
  std::vector<std::int64_t> due_offset;  ///< per departure, ns after t0
  std::size_t items_per_departure = 1;
  std::vector<std::int64_t> stage0_ns;  ///< traced: per root, stage-0 entry
  std::vector<std::unique_ptr<ShardProbe>> shards;

  std::int64_t due(std::uint64_t root) const {
    return t0 + due_offset[root / items_per_departure];
  }
  /// Record one sink result emitted at `at` for `root`.
  void record_latency(ShardProbe& probe, std::uint64_t root,
                      std::int64_t at) const {
    const std::int64_t offset = due_offset[root / items_per_departure];
    probe.latency_ns.add(static_cast<double>(at - t0 - offset),
                         window_of(offset));
  }

  /// Wrap one shard's stage set.
  std::vector<runtime::StageFn> wrap(std::vector<runtime::StageFn> stages,
                                     std::size_t shard);

 private:
  void digest_outputs(ShardProbe& probe, const std::vector<runtime::Item>& out,
                      std::size_t from) const;
};

/// Time-weighted mean of a sampled quantity (the plan's active fraction).
class TimeAverage {
 public:
  void start(std::int64_t t, double value) {
    last_t_ = t;
    last_v_ = value;
    acc_ = 0.0;
    span_ = 0;
  }
  void sample(std::int64_t t, double value) {
    acc_ += last_v_ * static_cast<double>(t - last_t_);
    span_ += t - last_t_;
    last_t_ = t;
    last_v_ = value;
  }
  double mean() const {
    return span_ > 0 ? acc_ / static_cast<double>(span_) : last_v_;
  }

 private:
  std::int64_t last_t_ = 0;
  double last_v_ = 0.0;
  double acc_ = 0.0;
  std::int64_t span_ = 0;
};

/// CPU of the system under test per executed item, per one-second window:
/// process CPU minus the generator thread's own, over the items the
/// workers executed in the window. Driven from the generator thread.
class CpuWindows {
 public:
  void start(std::int64_t t0, std::uint64_t executed);
  /// Close the current window once `now` has passed its end.
  void poll(std::int64_t now, const service::PipelineService& service) {
    if (now >= next_) close(now, service.stats().executed_items);
  }
  /// Close the tail window (folded into the previous one when short).
  void finish(std::int64_t now, std::uint64_t executed);
  double steady_ns_per_item() const;

 private:
  void close(std::int64_t now, std::uint64_t executed);

  std::int64_t start_ = 0;
  std::int64_t next_ = 0;
  std::int64_t cpu_ = 0;
  std::int64_t gen_cpu_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<std::pair<double, double>> windows_;  ///< (cpu ns, items)
};

/// Mean predicted active fraction over the service's shards' current plans.
double mean_plan_active_fraction(const service::PipelineService& service);

/// Wait (sleeping) until every accepted item has executed; false on timeout.
bool await_drained(const service::PipelineService& service,
                   std::int64_t timeout_ns);

}  // namespace perfbench
