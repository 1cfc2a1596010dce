// Closed-loop job loop shared by the two batch workloads: run jobs back to
// back for the measured interval, set the system up afresh between one-second
// windows, and tally wall time per job and per set-up, virtual-time deadline
// outcomes and (traced) per-node executor counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "runtime/pipeline_executor.hpp"
#include "sim/metrics.hpp"
#include "util/result.hpp"

namespace perfbench {

struct BatchTally {
  WindowedSamples job_ns;  ///< wall time per job, by window of its start
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t on_time = 0;
  std::vector<ripple::sim::NodeMetrics> nodes;  ///< summed over jobs
  double measured_active_fraction = 0.0;        ///< summed over jobs
  std::int64_t t0 = 0;
  std::vector<double> cpu_ns_per_item;  ///< per one-second window
  std::vector<double> setup_s;          ///< per cold set-up

  /// Record one job that ran from `start` to `end` (wall ns).
  void add(std::size_t inputs, std::int64_t start, std::int64_t end,
           const ripple::util::Result<ripple::runtime::ExecutionMetrics>& run) {
    job_ns.add(static_cast<double>(end - start), window_of(start - t0));
    offered += inputs;
    if (!run.ok()) return;  // a failed job delivers nothing
    const ripple::sim::TrialMetrics& m = run.value().base;
    completed += inputs;
    on_time += m.inputs_arrived - m.inputs_missed;
    if (nodes.empty()) nodes.resize(m.nodes.size());
    for (std::size_t i = 0; i < m.nodes.size(); ++i) {
      nodes[i].firings += m.nodes[i].firings;
      nodes[i].empty_firings += m.nodes[i].empty_firings;
      nodes[i].items_consumed += m.nodes[i].items_consumed;
      nodes[i].items_produced += m.nodes[i].items_produced;
      nodes[i].max_queue_length =
          std::max(nodes[i].max_queue_length, m.nodes[i].max_queue_length);
    }
    measured_active_fraction += m.active_fraction();
  }

  std::uint64_t jobs() const { return job_ns.size(); }
  double total_job_ns() const {
    double total = 0.0;
    for (const double ns : job_ns.values) total += ns;
    return total;
  }

  /// The end-to-end metrics of a closed-loop batch workload. `rss_mib` is
  /// read right after the job loop, before the output checks allocate.
  void report(PhaseResult& result, std::size_t job_inputs,
              double planned_active_fraction, double rss_mib) const {
    result.attempted = offered;
    result.failed = offered - completed + result.failures.size();
    result.set_setup(setup_s);
    result.set_latency(job_ns);
    // Inputs per job over the steady (upper-quartile) job time.
    result.set("completed_items_per_s",
               static_cast<double>(job_inputs) /
                   (steady_cost(job_ns.values) / 1e9),
               "1/s", jobs());
    result.set("cpu_ns_per_item", steady_cost(cpu_ns_per_item), "ns",
               offered);
    result.set("delivered_ratio",
               static_cast<double>(completed) / static_cast<double>(offered),
               "ratio", offered);
    result.set("deadline_met_ratio",
               static_cast<double>(on_time) / static_cast<double>(offered),
               "ratio", offered);
    result.set("active_fraction", planned_active_fraction, "ratio", 1);
    result.set("peak_rss_mb", rss_mib, "MiB", 1);
  }

  /// Executor-wide lane occupancy and empty-firing share.
  double lane_occupancy(std::uint32_t width) const {
    double consumed = 0.0, slots = 0.0;
    for (const auto& n : nodes) {
      consumed += static_cast<double>(n.items_consumed);
      slots += static_cast<double>(n.firings) * width;
    }
    return slots > 0.0 ? consumed / slots : 0.0;
  }
  double empty_firing_ratio() const {
    double empty = 0.0, all = 0.0;
    for (const auto& n : nodes) {
      empty += static_cast<double>(n.empty_firings);
      all += static_cast<double>(n.firings + n.empty_firings);
    }
    return all > 0.0 ? empty / all : 0.0;
  }
  std::uint64_t max_queue_depth() const {
    std::uint64_t depth = 0;
    for (const auto& n : nodes) depth = std::max(depth, n.max_queue_length);
    return depth;
  }
};

/// Share of each one-second window spent on cold set-ups (at least one).
inline constexpr double kSetupShare = 0.05;

/// Set the system up with `setup()`, then run `job(index, tally)` back to
/// back for `seconds`; each job times itself and records into the tally. CPU
/// per item is taken per one-second window. Between windows the system is
/// set up afresh, repeatedly for kSetupShare of a window, outside both the
/// job times and the windows' CPU: setup_s then samples the host across the
/// whole run, as the jobs do, instead of only its first moments.
template <class Setup, class Job>
BatchTally run_closed_loop(double seconds, Setup&& setup, Job&& job) {
  BatchTally tally;
  const auto timed_setups = [&] {
    const std::int64_t until =
        now_ns() + static_cast<std::int64_t>(kSetupShare * 1e9);
    do {
      const std::int64_t start = now_ns();
      setup();
      tally.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    } while (now_ns() < until);
  };
  timed_setups();
  tally.t0 = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t window_end = tally.t0 + 1'000'000'000;
  std::int64_t window_cpu = process_cpu_ns();
  std::uint64_t window_items = 0;
  for (std::size_t n = 0;; ++n) {
    const std::int64_t now = now_ns();
    if (now >= window_end || now - tally.t0 >= budget) {
      const std::int64_t cpu = process_cpu_ns();
      const std::uint64_t items = tally.offered - window_items;
      if (items > 0) {
        tally.cpu_ns_per_item.push_back(static_cast<double>(cpu - window_cpu) /
                                        static_cast<double>(items));
      }
      if (now - tally.t0 >= budget) break;
      timed_setups();
      window_cpu = process_cpu_ns();
      window_items = tally.offered;
      window_end = now_ns() + 1'000'000'000;
    }
    job(n, tally);
  }
  return tally;
}

}  // namespace perfbench
