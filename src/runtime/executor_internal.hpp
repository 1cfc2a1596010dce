// The vector-wide event loop shared by PipelineExecutor and GraphExecutor.
//
// Both front-ends describe their topology as plain data — nodes with service
// times, in- and out-queue indices and a BatchStage, queues with their trace
// labels — and run it through run_engine(). A chain is the single-path case:
// queue i feeds node i, node i feeds queue i+1. The loop never asks which
// front-end built the topology.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/pipeline_executor.hpp"

namespace ripple::runtime::detail {

enum EventPriority : int {
  kPriorityFireEnd = 0,
  // Priority 1 was the seed engine's arrival events; the vector engine
  // materializes arrivals lazily (they commute with fire-ends, which never
  // touch the source queue) so only fire events remain.
  kPriorityFireStart = 2,
};

struct EventPayload {
  enum class Kind : std::uint8_t { kFireEnd, kFireStart };
  Kind kind;
  NodeIndex node = 0;
};

/// One lane queue between nodes, as the trace sees it.
struct EngineQueue {
  std::uint32_t track = 0;  ///< trace track of its depth counter
  const char* counter = "queue_depth";
  std::string track_label;  ///< names `track` on the trace when non-empty
};

/// One node. A firing consumes the matched front lanes of every in-queue:
/// with a stage, lane k of in-queue j is item j * lanes + k of the stage's
/// window (typed stages read exactly one in-queue) and the stage's outputs
/// are replicated onto every out-queue; without one (a synchronizer), the
/// lanes of in-queue j forward to out-queue j. No out-queues make a sink.
/// Every queue has at most one producer and exactly one consumer, except
/// the arrival queue, which has no producer.
struct EngineNode {
  std::string name;
  Cycles service_time = 0.0;
  std::vector<std::size_t> in_queues;
  std::vector<std::size_t> out_queues;
  BatchStage stage;              ///< fn is null for a synchronizer
  const char* span = "service";  ///< trace span of a consuming firing
};

struct EngineTopology {
  std::vector<EngineNode> nodes;
  std::vector<EngineQueue> queues;
  std::size_t arrival_queue = 0;  ///< the source node's in-queue
  std::uint32_t simd_width = 1;
  /// Every node once, upstream before downstream: the order of the first
  /// fire-starts, which same-time fire-starts of different nodes keep. It
  /// matters only at the end of a run (a node that fires before its
  /// upstream neighbour filters the last item takes one more empty firing),
  /// and a topological order makes a linear graph replay its chain exactly.
  std::vector<NodeIndex> fire_order;
};

/// Run-config validation, naming nodes by name. Returns the failure to
/// propagate, or nullopt when the configuration is runnable.
std::optional<util::Result<ExecutionMetrics>> validate_run_config(
    const EngineTopology& topology, std::size_t input_count,
    const ExecutorConfig& config);

/// Replay the enforced-wait cadence over `topology` in virtual time. Exactly
/// one of `typed_inputs` / `item_inputs` is set; it feeds the arrival queue,
/// whose consumer must match its representation.
util::Result<ExecutionMetrics> run_engine(const EngineTopology& topology,
                                          const BatchInputs* typed_inputs,
                                          std::vector<Item>* item_inputs,
                                          const ExecutorConfig& config);

}  // namespace ripple::runtime::detail
