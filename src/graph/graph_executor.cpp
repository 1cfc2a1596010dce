#include "graph/graph_executor.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <utility>

#include "runtime/executor_internal.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"

namespace ripple::graph {

using runtime::BatchEmitter;
using runtime::ExecutionMetrics;
using runtime::RootId;
using runtime::detail::EngineTopology;
using runtime::detail::EventPayload;
using runtime::detail::kPriorityFireEnd;
using runtime::detail::kPriorityFireStart;

namespace {

const char* fire_span_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSiso:
      return "graph.fire";
    case NodeKind::kSimoTee:
      return "graph.tee";
    case NodeKind::kMisoElementwise:
      return "graph.merge";
    case NodeKind::kMimoSynchronizer:
      return "graph.sync";
  }
  return "graph.fire";
}

/// Wrap a graph stage as an item BatchStage: lane k's inputs are the k-th
/// item of each in-edge block of the window, in in-edge order.
runtime::BatchStage adapt_graph_stage(GraphStageFn fn) {
  runtime::BatchStage stage;
  stage.carries_items = true;
  stage.fn = [fn = std::move(fn)](const runtime::LaneView& in,
                                  BatchEmitter& out) {
    std::vector<Item> outputs;
    for (std::size_t k = 0; k < in.lanes; ++k) {
      std::vector<Item> lane_inputs;
      lane_inputs.reserve(in.fan_in);
      for (std::size_t j = 0; j < in.fan_in; ++j) {
        lane_inputs.push_back(std::move(in.items[j * in.lanes + k]));
      }
      outputs.clear();
      fn(std::move(lane_inputs), outputs);
      for (Item& item : outputs) out.emit_item(k, std::move(item));
    }
  };
  return stage;
}

/// The graph as engine topology: queue e is edge e, queue edge_count() the
/// source's arrival queue.
std::unique_ptr<const EngineTopology> graph_topology(
    const GraphSpec& graph, const std::vector<GraphStageFn>& stages) {
  auto topology = std::make_unique<EngineTopology>();
  topology->simd_width = graph.simd_width();
  const std::size_t n = graph.size();
  for (EdgeIndex e = 0; e < graph.edge_count(); ++e) {
    topology->queues.push_back(
        {static_cast<std::uint32_t>(n + e), "graph.queue_depth",
         "edge " + graph.node(graph.edge(e).from).name + "->" +
             graph.node(graph.edge(e).to).name});
  }
  topology->arrival_queue = graph.edge_count();
  topology->queues.push_back(
      {static_cast<std::uint32_t>(graph.source()), "graph.queue_depth", {}});
  for (NodeIndex u = 0; u < n; ++u) {
    runtime::detail::EngineNode node;
    node.name = graph.node(u).name;
    node.service_time = graph.service_time(u);
    node.in_queues = u == graph.source()
                         ? std::vector<std::size_t>{topology->arrival_queue}
                         : graph.in_edges(u);
    node.out_queues = graph.out_edges(u);
    if (stages[u]) node.stage = adapt_graph_stage(stages[u]);
    node.span = fire_span_name(graph.node(u).kind);
    topology->nodes.push_back(std::move(node));
  }
  topology->fire_order = graph.topo_order();
  return topology;
}

}  // namespace

GraphExecutor::GraphExecutor(GraphSpec graph, std::vector<GraphStageFn> stages)
    : graph_(std::move(graph)), stages_(std::move(stages)) {
  RIPPLE_REQUIRE(stages_.size() == graph_.size(),
                 "one stage function per graph node");
  for (NodeIndex u = 0; u < graph_.size(); ++u) {
    if (graph_.node(u).kind == NodeKind::kMimoSynchronizer) {
      RIPPLE_REQUIRE(
          !stages_[u],
          "synchronizer nodes forward without a stage (register nullptr)");
    } else {
      RIPPLE_REQUIRE(static_cast<bool>(stages_[u]),
                     "stage function for node '" + graph_.node(u).name +
                         "' must be callable");
    }
  }
  topology_ = graph_topology(graph_, stages_);
}

GraphExecutor::~GraphExecutor() = default;

util::Result<ExecutionMetrics> GraphExecutor::run(
    std::vector<Item> inputs, const GraphExecutorConfig& config) const {
  return runtime::detail::run_engine(*topology_, nullptr, &inputs, config);
}

util::Result<ExecutionMetrics> GraphExecutor::run_reference(
    std::vector<Item> inputs, const GraphExecutorConfig& config) const {
  using R = util::Result<ExecutionMetrics>;
  if (auto invalid = runtime::detail::validate_run_config(
          *topology_, inputs.size(), config)) {
    return *std::move(invalid);
  }
  const std::size_t n = graph_.size();
  const std::uint32_t v = graph_.simd_width();
  const std::size_t input_count = inputs.size();
  const bool per_input_gaps = !config.input_gaps.empty();

  ExecutionMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);

  std::vector<Cycles> service_time(n);
  for (NodeIndex u = 0; u < n; ++u) service_time[u] = graph_.service_time(u);

  using Lane = std::pair<Item, RootId>;
  const std::size_t arrival_queue = graph_.edge_count();
  std::vector<std::deque<Lane>> queues(graph_.edge_count() + 1);
  std::vector<std::vector<std::size_t>> in_queues(n);
  for (NodeIndex u = 0; u < n; ++u) {
    if (u == graph_.source()) {
      in_queues[u] = {arrival_queue};
    } else {
      for (EdgeIndex e : graph_.in_edges(u)) in_queues[u].push_back(e);
    }
  }
  std::vector<std::vector<std::vector<Lane>>> in_flight(n);
  for (NodeIndex u = 0; u < n; ++u) {
    in_flight[u].resize(std::max<std::size_t>(1, graph_.out_edges(u).size()));
  }

  std::vector<Cycles> root_arrival(input_count, 0.0);
  std::vector<bool> root_missed(input_count, false);

  std::uint64_t live_items = 0;
  std::size_t next_input = 0;
  Cycles next_arrival = per_input_gaps ? config.input_gaps[0] : config.input_gap;
  bool arrivals_done = false;

  const auto materialize_arrivals = [&](Cycles now) {
    if (arrivals_done || next_arrival > now) return;
    while (!arrivals_done && next_arrival <= now) {
      const RootId root = static_cast<RootId>(next_input);
      root_arrival[root] = next_arrival;
      ++metrics.base.inputs_arrived;
      queues[arrival_queue].emplace_back(std::move(inputs[next_input]), root);
      ++live_items;
      ++next_input;
      if (next_input == input_count) {
        arrivals_done = true;
      } else {
        next_arrival +=
            per_input_gaps ? config.input_gaps[next_input] : config.input_gap;
      }
    }
    metrics.base.nodes[graph_.source()].max_queue_length =
        std::max<std::uint64_t>(
            metrics.base.nodes[graph_.source()].max_queue_length,
            queues[arrival_queue].size());
  };

  sim::EventQueue<EventPayload> events;
  for (const NodeIndex u : graph_.topo_order()) {
    events.push(0.0, kPriorityFireStart, {EventPayload::Kind::kFireStart, u});
  }

  std::vector<Item> scratch;
  std::uint64_t processed = 0;
  while (!events.empty() && processed < config.max_events) {
    const auto event = events.pop();
    ++processed;
    const Cycles now = event.time;
    materialize_arrivals(now);

    if (event.payload.kind == EventPayload::Kind::kFireEnd) {
      const NodeIndex u = event.payload.node;
      const std::vector<EdgeIndex>& out = graph_.out_edges(u);
      if (out.empty()) {
        std::vector<Lane>& bundle = in_flight[u][0];
        for (Lane& lane : bundle) {
          ++metrics.base.sink_outputs;
          const Cycles latency = now - root_arrival[lane.second];
          metrics.base.record_latency(latency);
          if (config.deadline > 0.0 &&
              latency > config.deadline * (1.0 + 1e-12) &&
              !root_missed[lane.second]) {
            root_missed[lane.second] = true;
            ++metrics.base.inputs_missed;
          }
          metrics.base.makespan = std::max(metrics.base.makespan, now);
          if (metrics.results.size() < config.max_collected_results) {
            metrics.results.push_back(std::move(lane.first));
          }
        }
        live_items -= bundle.size();
        bundle.clear();
      } else {
        for (std::size_t s = 0; s < out.size(); ++s) {
          std::vector<Lane>& bundle = in_flight[u][s];
          std::deque<Lane>& queue = queues[out[s]];
          for (Lane& lane : bundle) queue.push_back(std::move(lane));
          const NodeIndex target = graph_.edge(out[s]).to;
          metrics.base.nodes[target].max_queue_length = std::max<std::uint64_t>(
              metrics.base.nodes[target].max_queue_length, queue.size());
          bundle.clear();
        }
      }
      continue;
    }

    // FireStart
    const NodeIndex u = event.payload.node;
    sim::NodeMetrics& node = metrics.base.nodes[u];
    const std::vector<std::size_t>& node_inputs = in_queues[u];
    std::uint64_t deepest = 0;
    std::uint64_t matched = std::numeric_limits<std::uint64_t>::max();
    for (const std::size_t q : node_inputs) {
      deepest = std::max<std::uint64_t>(deepest, queues[q].size());
      matched = std::min<std::uint64_t>(matched, queues[q].size());
    }
    const NodeKind kind = graph_.node(u).kind;
    const bool elementwise = kind == NodeKind::kMisoElementwise ||
                             kind == NodeKind::kMimoSynchronizer;
    const std::uint32_t consumed = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(elementwise ? matched : deepest, v));

    if (consumed > 0 || config.charge_empty_firings) {
      ++node.firings;
      if (consumed == 0) ++node.empty_firings;
      node.active_time += service_time[u];
    }

    if (consumed > 0) {
      std::uint64_t produced = 0;
      try {
        if (kind == NodeKind::kMimoSynchronizer) {
          for (std::size_t j = 0; j < node_inputs.size(); ++j) {
            std::deque<Lane>& queue = queues[node_inputs[j]];
            std::vector<Lane>& bundle = in_flight[u][j];
            for (std::uint32_t k = 0; k < consumed; ++k) {
              bundle.push_back(std::move(queue[k]));
            }
            queue.erase(queue.begin(), queue.begin() + consumed);
            produced += consumed;
          }
        } else {
          const GraphStageFn& fn = stages_[u];
          for (std::uint32_t k = 0; k < consumed; ++k) {
            std::vector<Item> lane_inputs;
            lane_inputs.reserve(node_inputs.size());
            for (const std::size_t q : node_inputs) {
              lane_inputs.push_back(std::move(queues[q][k].first));
            }
            const RootId root = queues[node_inputs[0]][k].second;
            scratch.clear();
            fn(std::move(lane_inputs), scratch);
            if (kind == NodeKind::kSimoTee) {
              const std::size_t slots = in_flight[u].size();
              for (std::size_t s = 0; s < slots; ++s) {
                for (Item& out : scratch) {
                  in_flight[u][s].emplace_back(
                      s + 1 < slots ? Item(out) : std::move(out), root);
                }
                produced += scratch.size();
              }
            } else {
              for (Item& out : scratch) {
                in_flight[u][0].emplace_back(std::move(out), root);
              }
              produced += scratch.size();
            }
          }
          for (const std::size_t q : node_inputs) {
            queues[q].erase(queues[q].begin(), queues[q].begin() + consumed);
          }
        }
      } catch (const std::exception& e) {
        return R::failure("stage_exception", "stage '" + graph_.node(u).name +
                                                 "' threw: " + e.what());
      } catch (...) {
        return R::failure("stage_exception",
                          "stage '" + graph_.node(u).name + "' threw");
      }
      const std::uint64_t consumed_total =
          static_cast<std::uint64_t>(consumed) *
          (elementwise ? node_inputs.size() : 1);
      node.items_consumed += consumed_total;
      node.items_produced += produced;
      live_items += produced;
      live_items -= consumed_total;
      events.push(now + service_time[u], kPriorityFireEnd,
                  {EventPayload::Kind::kFireEnd, u});
    }
    if (!(arrivals_done && live_items == 0)) {
      events.push(now + config.firing_intervals[u], kPriorityFireStart,
                  {EventPayload::Kind::kFireStart, u});
    }
  }
  if (processed >= config.max_events) {
    return R::failure("event_budget",
                      "event budget exhausted (unstable schedule?)");
  }

  metrics.base.inputs_on_time =
      metrics.base.inputs_arrived - metrics.base.inputs_missed;
  if (metrics.base.makespan <= 0.0 && metrics.base.inputs_arrived > 0) {
    metrics.base.makespan =
        per_input_gaps
            ? next_arrival
            : config.input_gap *
                  static_cast<double>(metrics.base.inputs_arrived);
  }
  return metrics;
}

}  // namespace ripple::graph
