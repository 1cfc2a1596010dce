// Shared internals of the vector-wide executors.
//
// The chain engine (pipeline_executor.cpp) and the DAG engine
// (graph/graph_executor.cpp) replay the same virtual event loop — same event
// kinds, same priorities — and linear graphs must delegate between them bit
// for bit. The pieces both translation units use live here so they cannot
// drift apart.
#pragma once

#include <array>
#include <optional>
#include <string>

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

inline Item default_materialize(const std::uint32_t* fields) {
  std::array<std::uint32_t, kMaxLaneFields> tuple{};
  for (std::size_t f = 0; f < kMaxLaneFields; ++f) tuple[f] = fields[f];
  return Item(tuple);
}

/// Shared run-config validation. Returns the failure to propagate, or
/// nullopt when the configuration is runnable.
inline std::optional<util::Result<ExecutionMetrics>> validate_run_config(
    const sdf::PipelineSpec& pipeline, std::size_t input_count,
    const ExecutorConfig& config) {
  using R = util::Result<ExecutionMetrics>;
  const std::size_t n = pipeline.size();
  if (config.firing_intervals.size() != n) {
    return R::failure("bad_config", "one firing interval per node required");
  }
  for (NodeIndex i = 0; i < n; ++i) {
    if (config.firing_intervals[i] < pipeline.service_time(i) - 1e-9) {
      return R::failure("bad_config",
                        "firing interval below service time at node " +
                            std::to_string(i));
    }
  }
  if (input_count == 0) {
    return R::failure("bad_config", "need at least one input");
  }
  if (!config.input_gaps.empty()) {
    if (config.input_gaps.size() != input_count) {
      return R::failure("bad_config", "one arrival gap per input required");
    }
    for (Cycles gap : config.input_gaps) {
      if (!(gap > 0.0)) {
        return R::failure("bad_config", "arrival gaps must be positive");
      }
    }
  } else if (!(config.input_gap > 0.0)) {
    return R::failure("bad_config", "input gap must be positive");
  }
  return std::nullopt;
}

}  // namespace ripple::runtime::detail
