// Vector-wide virtual-time execution of REAL stage computations over
// GraphSpec DAGs — the graph generalization of runtime/pipeline_executor.hpp.
//
// Items flow through per-edge SoA ring queues; each firing of node u hands
// its stage one dense batch of up to v lanes gathered from u's in-edge
// queues. Gains, queue growth, and deadline misses emerge from the stage
// computations themselves rather than from fitted distributions; time stays
// virtual (node u's firings occupy its configured x_u cycles) so runs are
// exactly reproducible and independent of host speed.
//
// Node-kind semantics (matching graph_sim's routing contract):
//   source / SISO  — the stage sees one item per lane and its outputs flow
//                    down the single out-edge (sink outputs are results).
//   tee            — the stage runs once per lane; its outputs are
//                    *replicated* onto every out-edge, in out-edge insertion
//                    order. Item payloads must be copy-constructible.
//   merge          — one matched item per in-edge per lane, handed to the
//                    stage as a tuple in in-edge insertion order; the
//                    combined outputs flow down the single out-edge carrying
//                    the first in-edge's root.
//   synchronizer   — pure forwarding (stage must be null): in-edge j's item
//                    k moves to out-edge j, so every stream advances by the
//                    same matched count and batch boundaries realign.
//
// GraphExecutor is a thin front-end: it describes the graph as engine
// topology (one item queue per edge plus the source's arrival queue, each
// stage wrapped as a BatchStage once, at construction) and runs it on the
// event loop it shares with runtime::PipelineExecutor
// (runtime/executor_internal.hpp), on the calling thread. Every graph runs
// there, linear ones included. Parallelism comes from running independent
// executors side by side (one per service shard), not from inside one run.
//
// run_reference() is the seed-style per-item oracle: one std::deque of
// (item, root) per edge, the same event cadence, scalar stage calls. The
// vector engine is golden-tested against it (tests/test_graph_executor.cpp).
//
// On RIPPLE_OBS builds each consuming firing (linear graphs included) emits
// the kind-specific span ("graph.fire" / "graph.tee" / "graph.merge" /
// "graph.sync") on the node's track and "graph.queue_depth" counter samples
// per in-edge (edge track id = node count + edge index), mirroring the
// stochastic graph simulator.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "graph/graph_spec.hpp"
#include "runtime/pipeline_executor.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::graph {

using runtime::Item;

/// One graph stage invocation: `inputs` holds one item per in-edge in
/// in-edge insertion order (the source stage receives the arrival item as a
/// single input); append zero or more outputs. Synchronizer nodes forward
/// without a stage and must be registered as nullptr.
using GraphStageFn =
    std::function<void(std::vector<Item>&& inputs, std::vector<Item>& outputs)>;

/// The chain executor's run configuration, with firing_intervals indexed by
/// graph node index.
using GraphExecutorConfig = runtime::ExecutorConfig;

class GraphExecutor {
 public:
  /// One GraphStageFn per node (synchronizers: nullptr). Throws
  /// std::logic_error when the stage count or per-kind callability rules are
  /// violated.
  GraphExecutor(GraphSpec graph, std::vector<GraphStageFn> stages);

  ~GraphExecutor();
  GraphExecutor(const GraphExecutor&) = delete;
  GraphExecutor& operator=(const GraphExecutor&) = delete;

  const GraphSpec& graph() const noexcept { return graph_; }

  /// Run inputs through the graph in virtual time. Node metrics in the
  /// result are indexed by graph node index. Failure codes: "bad_config",
  /// "event_budget", "stage_exception" (message names the node).
  util::Result<runtime::ExecutionMetrics> run(
      std::vector<Item> inputs, const GraphExecutorConfig& config) const;

  /// Per-item oracle: identical results and metrics to run(), computed by
  /// the scalar seed-style engine.
  util::Result<runtime::ExecutionMetrics> run_reference(
      std::vector<Item> inputs, const GraphExecutorConfig& config) const;

 private:
  GraphSpec graph_;
  std::vector<GraphStageFn> stages_;  ///< as registered, for run_reference()
  std::unique_ptr<const runtime::detail::EngineTopology> topology_;
};

}  // namespace ripple::graph
