// dag-batch: the DAG engine. Closed loop of back-to-back jobs, each a fixed
// number of scenario inputs run through GraphExecutor::run on the branching
// mini-BLAST scenario (seed probe -> tee -> two extensions -> merge), under
// the schedule GraphPlanner solves at set-up. Per-edge queues, tee
// replication, merge windows and the per-item GraphStageFn calls dominate.
//
// Threads: one.
#include <any>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "batch_common.hpp"
#include "common.hpp"
#include "graph/graph_executor.hpp"
#include "graph/graph_plan.hpp"
#include "graph/scenarios.hpp"

namespace perfbench {

namespace {

using namespace ripple;

constexpr std::size_t kJobInputs = 512;
constexpr std::size_t kJobSlices = 8;
constexpr std::uint64_t kCanarySeed = 1;
/// Digest of the canary job: pins the scenario's computation, so a change
/// to it fails the run instead of silently redefining the benchmark.
constexpr const char* kCanaryDigest =
    "c6f81bfd1c11d3996acd18be7a227903-203";

std::uint64_t job_seed(std::uint64_t seed, std::size_t slice) {
  return mix64(seed * kJobSlices + slice);
}

struct DagSystem {
  graph::GraphScenario scenario = graph::branching_blast_scenario();
  graph::GraphSchedule schedule;
  graph::GraphExecutorConfig config;
  double solve_ms = 0.0;
  std::unique_ptr<graph::GraphExecutor> executor;
  std::vector<std::vector<graph::Item>> jobs;

  /// Traced when `node_ns` is given: each node's self time adds to its slot
  /// there, which outlives the system across the run's set-ups.
  DagSystem(std::uint64_t seed, std::vector<std::int64_t>* node_ns) {
    for (std::size_t j = 0; j < kJobSlices; ++j) {
      jobs.push_back(graph::scenario_inputs(kJobInputs, job_seed(seed, j)));
    }
    const graph::GraphPlanner planner(
        scenario.graph, graph::GraphPlanConfig::optimistic(scenario.graph));
    // Offer inputs at 0.8 of the source's top rate; give the deadline half
    // again the minimal budget at that rate.
    const Cycles tau0 = 1.25 * planner.minimal_intervals().front() /
                        scenario.graph.simd_width();
    const Cycles deadline = 1.5 * planner.min_feasible_deadline(tau0);
    const std::int64_t solve_start = now_ns();
    auto solved = planner.solve(tau0, deadline);
    solve_ms = static_cast<double>(now_ns() - solve_start) / 1e6;
    if (!solved.ok()) throw std::runtime_error("dag-batch: plan infeasible");
    schedule = std::move(solved).take();
    config.firing_intervals = schedule.firing_intervals;
    config.input_gap = tau0;
    config.deadline = deadline;
    config.max_collected_results = 0;

    std::vector<graph::GraphStageFn> stages = scenario.stages;
    if (node_ns != nullptr) {
      node_ns->resize(stages.size(), 0);
      for (std::size_t u = 0; u < stages.size(); ++u) {
        if (!stages[u]) continue;
        stages[u] = [fn = stages[u], slot = &(*node_ns)[u]](
                        std::vector<graph::Item>&& in,
                        std::vector<graph::Item>& out) {
          const std::int64_t start = now_ns();
          fn(std::move(in), out);
          *slot += now_ns() - start;
        };
      }
    }
    executor = std::make_unique<graph::GraphExecutor>(scenario.graph,
                                                      std::move(stages));
  }

  graph::GraphExecutorConfig collecting() const {
    graph::GraphExecutorConfig full = config;
    full.max_collected_results = kJobInputs * 4;
    return full;
  }
};

Digest job_digest(const runtime::ExecutionMetrics& m) {
  Digest digest;
  for (const graph::Item& item : m.results) {
    digest.add(std::any_cast<std::uint64_t>(item));
  }
  digest.add(m.base.inputs_missed);
  return digest;
}

/// One job against GraphExecutor::run_reference, the per-item oracle.
bool matches_oracle(const DagSystem& sys) {
  auto vector = sys.executor->run(sys.jobs[0], sys.collecting());
  auto reference = sys.executor->run_reference(sys.jobs[0], sys.collecting());
  if (!vector.ok() || !reference.ok()) return false;
  const auto& a = vector.value().results;
  const auto& b = reference.value().results;
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::any_cast<std::uint64_t>(a[i]) !=
        std::any_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return vector.value().base.sink_outputs ==
             reference.value().base.sink_outputs &&
         vector.value().base.inputs_missed ==
             reference.value().base.inputs_missed;
}

/// Output digest of the canary job.
std::string canary_digest() {
  const DagSystem canary(kCanarySeed, nullptr);
  auto run = canary.executor->run(canary.jobs[0], canary.collecting());
  return run.ok() ? job_digest(run.value()).hex() : "failed";
}

}  // namespace

std::string dag_batch_input_digest(std::uint64_t seed) {
  Digest digest;
  for (const graph::Item& item :
       graph::scenario_inputs(kJobInputs, job_seed(seed, 0))) {
    digest.add(std::any_cast<std::uint64_t>(item));
  }
  return digest.hex();
}

PhaseResult run_dag_batch(const Options& options, bool traced) {
  PhaseResult result;
  std::vector<std::int64_t> node_ns;
  std::unique_ptr<DagSystem> system;
  const BatchTally tally = run_closed_loop(
      options.seconds,
      [&] {
        system.reset();
        system = std::make_unique<DagSystem>(options.seed,
                                             traced ? &node_ns : nullptr);
      },
      [&](std::size_t n, BatchTally& t) {
        std::vector<graph::Item> inputs = system->jobs[n % kJobSlices];
        const std::int64_t start = now_ns();
        auto run = system->executor->run(std::move(inputs), system->config);
        t.add(kJobInputs, start, now_ns(), run);
      });
  const double rss = peak_rss_mib();
  const std::vector<std::int64_t> node_self = node_ns;  // checks add more
  const DagSystem& sys = *system;

  result.check(tally.completed == tally.offered, "dag-batch: a job failed");
  result.check(matches_oracle(sys), "dag-batch: job != run_reference");
  const std::string canary = canary_digest();
  result.check(canary == kCanaryDigest,
               "dag-batch: canary digest changed: got " + canary);
  tally.report(result, kJobInputs, sys.schedule.predicted_active_fraction,
               rss);
  if (!traced) return result;

  const graph::GraphSpec& spec = sys.scenario.graph;
  double stage_total = 0.0;
  for (std::size_t u = 0; u < spec.size(); ++u) {
    const double ns = static_cast<double>(node_self[u]);
    stage_total += ns;
    result.layer("graph.node_ns_per_item." + spec.node(u).name,
                 ns / std::max<double>(
                          1.0, static_cast<double>(
                                   tally.nodes[u].items_consumed)),
                 "ns", tally.nodes[u].items_consumed);
  }
  const double job_total = tally.total_job_ns();
  const double roots = static_cast<double>(tally.offered);
  result.layer("graph.overhead_ns_per_item", (job_total - stage_total) / roots,
               "ns", tally.offered);
  result.layer("graph.max_queue_depth",
               static_cast<double>(tally.max_queue_depth()), "count",
               tally.jobs());
  result.layer("graph.empty_firing_ratio", tally.empty_firing_ratio(),
               "ratio", tally.jobs());
  result.layer("plan.solve_ms", sys.solve_ms, "ms");
  result.layer("plan.conformance",
               tally.measured_active_fraction /
                   static_cast<double>(tally.jobs()) /
                   sys.schedule.predicted_active_fraction,
               "ratio", tally.jobs());

  result.amdahl_path = "job wall time per root item";
  for (std::size_t u = 0; u < spec.size(); ++u) {
    result.amdahl.push_back({"graph." + spec.node(u).name,
                             static_cast<double>(node_self[u]) / roots});
  }
  result.amdahl.push_back(
      {"graph (engine overhead)", (job_total - stage_total) / roots});
  return result;
}

}  // namespace perfbench
