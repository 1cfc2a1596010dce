#include "runtime/pipeline_executor.hpp"

#include <memory>

#include "runtime/executor_internal.hpp"
#include "util/assert.hpp"

namespace ripple::runtime {

namespace {

void validate_stages(const sdf::PipelineSpec& pipeline,
                     const std::vector<BatchStage>& stages) {
  RIPPLE_REQUIRE(stages.size() == pipeline.size(),
                 "one stage function per pipeline node");
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const BatchStage& stage = stages[i];
    RIPPLE_REQUIRE(static_cast<bool>(stage.fn),
                   "stage functions must be callable");
    RIPPLE_REQUIRE(stage.input_fields <= kMaxLaneFields &&
                       stage.output_fields <= kMaxLaneFields,
                   "stage arity exceeds the lane register file");
    if (i > 0) {
      RIPPLE_REQUIRE(stages[i].carries_items == stages[i - 1].carries_items,
                     "adjacent stages must share a lane representation");
      RIPPLE_REQUIRE(stages[i].carries_items ||
                         stages[i].input_fields == stages[i - 1].output_fields,
                     "stage input arity must match predecessor output arity");
    }
  }
}

std::vector<BatchStage> adapt_stages(const sdf::PipelineSpec& pipeline,
                                     std::vector<StageFn> stages) {
  RIPPLE_REQUIRE(stages.size() == pipeline.size(),
                 "one stage function per pipeline node");
  std::vector<BatchStage> adapted;
  adapted.reserve(stages.size());
  for (StageFn& stage : stages) adapted.push_back(adapt_stage(std::move(stage)));
  return adapted;
}

/// The chain as engine topology: queue i feeds node i, node i feeds queue
/// i + 1, and the last node is the sink.
std::unique_ptr<const detail::EngineTopology> chain_topology(
    const sdf::PipelineSpec& pipeline, std::vector<BatchStage> stages) {
  validate_stages(pipeline, stages);
  auto topology = std::make_unique<detail::EngineTopology>();
  topology->simd_width = pipeline.simd_width();
  const std::size_t n = pipeline.size();
  for (NodeIndex i = 0; i < n; ++i) {
    topology->queues.push_back(
        {static_cast<std::uint32_t>(i), "queue_depth", {}});
    detail::EngineNode node;
    node.name = pipeline.node(i).name;
    node.service_time = pipeline.service_time(i);
    node.in_queues = {i};
    if (i + 1 < n) node.out_queues = {i + 1};
    node.stage = std::move(stages[i]);
    topology->nodes.push_back(std::move(node));
    topology->fire_order.push_back(i);
  }
  return topology;
}

}  // namespace

BatchStage adapt_stage(StageFn stage) {
  RIPPLE_REQUIRE(static_cast<bool>(stage), "stage functions must be callable");
  BatchStage batch;
  batch.carries_items = true;
  batch.fn = [stage = std::move(stage)](const LaneView& in, BatchEmitter& out) {
    // Lane-granular: each lane's outputs are fully emitted before the next
    // scalar call, so a throw leaves earlier lanes delivered and no partial
    // lane behind (see tests/test_runtime_batch.cpp, AdapterThrowMidBatch).
    std::vector<Item> scratch;
    for (std::size_t lane = 0; lane < in.lanes; ++lane) {
      scratch.clear();
      stage(std::move(in.items[lane]), scratch);
      for (Item& item : scratch) out.emit_item(lane, std::move(item));
    }
  };
  return batch;
}

PipelineExecutor::PipelineExecutor(sdf::PipelineSpec spec,
                                   std::vector<StageFn> stages)
    : PipelineExecutor(spec, adapt_stages(spec, std::move(stages))) {}

PipelineExecutor::PipelineExecutor(sdf::PipelineSpec spec,
                                   std::vector<BatchStage> stages)
    : pipeline_(std::move(spec)),
      topology_(chain_topology(pipeline_, std::move(stages))) {}

PipelineExecutor::~PipelineExecutor() = default;

util::Result<ExecutionMetrics> PipelineExecutor::run(
    std::vector<Item> inputs, const ExecutorConfig& config) const {
  RIPPLE_REQUIRE(topology_->nodes.front().stage.carries_items,
                 "run() needs an item-carrying stage 0; use run_batch()");
  return detail::run_engine(*topology_, nullptr, &inputs, config);
}

util::Result<ExecutionMetrics> PipelineExecutor::run_batch(
    const BatchInputs& inputs, const ExecutorConfig& config) const {
  RIPPLE_REQUIRE(!topology_->nodes.front().stage.carries_items,
                 "run_batch() needs a typed stage 0; use run()");
  return detail::run_engine(*topology_, &inputs, nullptr, config);
}

}  // namespace ripple::runtime
