#include "graph/graph_executor.hpp"

#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/gain.hpp"
#include "execution_digest.hpp"
#include "graph/scenarios.hpp"

namespace ripple::graph {
namespace {

using dist::make_deterministic;
using golden::execution_digest;

void expect_same_base(const sim::TrialMetrics& expected,
                      const sim::TrialMetrics& got) {
  ASSERT_EQ(got.nodes.size(), expected.nodes.size());
  for (std::size_t i = 0; i < expected.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes[i].firings, expected.nodes[i].firings) << i;
    EXPECT_EQ(got.nodes[i].empty_firings, expected.nodes[i].empty_firings)
        << i;
    EXPECT_EQ(got.nodes[i].items_consumed, expected.nodes[i].items_consumed)
        << i;
    EXPECT_EQ(got.nodes[i].items_produced, expected.nodes[i].items_produced)
        << i;
    EXPECT_EQ(got.nodes[i].active_time, expected.nodes[i].active_time) << i;
    EXPECT_EQ(got.nodes[i].max_queue_length,
              expected.nodes[i].max_queue_length)
        << i;
  }
  EXPECT_EQ(got.inputs_arrived, expected.inputs_arrived);
  EXPECT_EQ(got.inputs_on_time, expected.inputs_on_time);
  EXPECT_EQ(got.inputs_missed, expected.inputs_missed);
  EXPECT_EQ(got.sink_outputs, expected.sink_outputs);
  EXPECT_EQ(got.output_latency.count(), expected.output_latency.count());
  EXPECT_EQ(got.output_latency.mean(), expected.output_latency.mean());
  EXPECT_EQ(got.output_latency.min(), expected.output_latency.min());
  EXPECT_EQ(got.output_latency.max(), expected.output_latency.max());
  EXPECT_EQ(got.makespan, expected.makespan);
  EXPECT_EQ(got.events_processed, expected.events_processed);
}

void expect_same_execution(const runtime::ExecutionMetrics& expected,
                           const runtime::ExecutionMetrics& got) {
  expect_same_base(expected.base, got.base);
  ASSERT_EQ(got.results.size(), expected.results.size());
  for (std::size_t i = 0; i < expected.results.size(); ++i) {
    EXPECT_EQ(std::any_cast<std::uint64_t>(got.results[i]),
              std::any_cast<std::uint64_t>(expected.results[i]))
        << i;
  }
}

GraphExecutorConfig scenario_config(const GraphSpec& graph,
                                    double interval_scale, Cycles input_gap,
                                    Cycles deadline = 0.0) {
  GraphExecutorConfig config;
  config.firing_intervals = graph.minimal_firing_intervals();
  for (Cycles& x : config.firing_intervals) x *= interval_scale;
  config.input_gap = input_gap;
  config.deadline = deadline;
  config.max_collected_results = 1 << 20;
  return config;
}

TEST(Golden, BranchingBlastVectorMatchesReference) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.25, 20.0);
  const GraphExecutor executor(scenario.graph, scenario.stages);

  auto vector_run = executor.run(scenario_inputs(400), config);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(400), config);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  expect_same_execution(reference.value(), vector_run.value());

  // The probe filter actually drops part of the stream, and both extension
  // branches contribute to every surviving rescore tuple.
  const sim::TrialMetrics& base = vector_run.value().base;
  EXPECT_GT(base.sink_outputs, 0u);
  EXPECT_LT(base.sink_outputs, 400u);
  EXPECT_EQ(base.nodes[1].items_produced, 2 * base.nodes[1].items_consumed);
  EXPECT_EQ(base.nodes[4].items_consumed, 2 * base.nodes[4].items_produced);
}

TEST(Golden, TelemetryFaninVectorMatchesReference) {
  GraphScenario scenario = telemetry_fanin_scenario();
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.2, 12.0);
  const GraphExecutor executor(scenario.graph, scenario.stages);

  auto vector_run = executor.run(scenario_inputs(300, 7), config);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(300, 7), config);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  expect_same_execution(reference.value(), vector_run.value());

  // All-deterministic stages: every input survives to the sink, and the
  // synchronizer forwards exactly what it consumes.
  const sim::TrialMetrics& base = vector_run.value().base;
  EXPECT_EQ(base.sink_outputs, 300u);
  EXPECT_EQ(base.nodes[5].items_consumed, base.nodes[5].items_produced);
  EXPECT_EQ(base.nodes[5].items_consumed, 900u);
}

// ---------------------------------------------------------------------------
// Golden digests: the engine's complete observable output on graph runs
// (tests/execution_digest.hpp), pinned to values recorded from an earlier
// build. Any change to results, per-node counters, latency accounting, or
// (on RIPPLE_OBS builds) the exported trace bytes breaks the digest, so
// engine refactors must replay the event loop exactly.
// ---------------------------------------------------------------------------

struct DigestCase {
  const char* label;
  double interval_scale;
  Cycles input_gap;
  Cycles deadline;
  std::size_t inputs;
  std::uint64_t seed;
  std::uint64_t execution;  ///< execution_digest of the run
  std::uint64_t trace;      ///< digest of the exported trace (RIPPLE_OBS)
};

void expect_digests(GraphScenario scenario, const DigestCase& c) {
  SCOPED_TRACE(c.label);
  const GraphExecutor executor(scenario.graph, scenario.stages);
  const GraphExecutorConfig config = scenario_config(
      scenario.graph, c.interval_scale, c.input_gap, c.deadline);
  auto run = executor.run(scenario_inputs(c.inputs, c.seed), config);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_GT(run.value().base.inputs_missed, 0u);
  EXPECT_LT(run.value().base.inputs_missed, c.inputs);
  EXPECT_EQ(execution_digest(run.value()), c.execution)
      << std::hex << "execution digest 0x" << execution_digest(run.value());

#if RIPPLE_OBS
  const std::uint64_t trace = golden::trace_digest([&] {
    auto traced = executor.run(scenario_inputs(c.inputs, c.seed), config);
    ASSERT_TRUE(traced.ok()) << traced.error().message;
    EXPECT_EQ(execution_digest(traced.value()), c.execution);
  });
  EXPECT_EQ(trace, c.trace) << std::hex << "trace digest 0x" << trace;
#endif
}

TEST(GoldenDigest, BranchingBlastMatchesRecordedDigests) {
  const DigestCase cases[] = {
      {"scale 1.25 gap 20", 1.25, 20.0, 3700.0, 400, 11,
       0x129b028832a7feb3ull, 0x60dce8386b932faeull},
      {"scale 1.1 gap 4", 1.1, 4.0, 4000.0, 300, 12,
       0xe5c0b23500dbe592ull, 0xddc465f362ee8169ull},
  };
  for (const DigestCase& c : cases) {
    expect_digests(branching_blast_scenario(), c);
  }
}

TEST(GoldenDigest, TelemetryFaninMatchesRecordedDigests) {
  const DigestCase cases[] = {
      {"scale 1.2 gap 12", 1.2, 12.0, 2550.0, 300, 13,
       0x284feb69de5495d1ull, 0xff0486b5d0f69666ull},
      {"scale 1.5 gap 5", 1.5, 5.0, 3440.0, 300, 14,
       0x3ea3de81304e8722ull, 0xe2a6bb6fd951ed38ull},
  };
  for (const DigestCase& c : cases) {
    expect_digests(telemetry_fanin_scenario(), c);
  }
}

/// Small linear chain with real per-item stages.
GraphScenario linear_scenario() {
  auto built = GraphBuilder("linear_hash")
                   .simd_width(16)
                   .add_node("scale", NodeKind::kSiso, 40.0)
                   .add_node("filter", NodeKind::kSiso, 30.0)
                   .add_node("emit", NodeKind::kSiso, 20.0)
                   .add_edge(0, 1, make_deterministic(1))
                   .add_edge(1, 2, make_deterministic(1))
                   .build();
  EXPECT_TRUE(built.ok()) << built.error().message;
  GraphScenario scenario{std::move(built).take(), {}};
  scenario.stages = {
      [](std::vector<Item>&& in, std::vector<Item>& out) {
        out.push_back(std::any_cast<std::uint64_t>(in[0]) * 2654435761u);
      },
      [](std::vector<Item>&& in, std::vector<Item>& out) {
        const auto x = std::any_cast<std::uint64_t>(in[0]);
        if ((x & 3u) != 0u) out.push_back(x);
      },
      [](std::vector<Item>&& in, std::vector<Item>& out) {
        out.push_back(std::any_cast<std::uint64_t>(in[0]) ^ 0xabcdu);
      },
  };
  return scenario;
}

TEST(LinearDelegation, ChainRunMatchesReferenceOracle) {
  GraphScenario scenario = linear_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);

  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.5, 5.0, /*deadline=*/5000.0);
  // run() goes through the shared vector engine; run_reference() is the
  // independent scalar engine.
  auto vector_run = executor.run(scenario_inputs(250, 3), config);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(250, 3), config);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  expect_same_execution(reference.value(), vector_run.value());
}

TEST(LinearDelegation, ReverseIndexedChainReplaysThePipeline) {
  // Node indices against chain order: the sink is node 0. Same-time firings
  // must still run upstream first, or the sink takes one more empty firing
  // after the filter drops the last item.
  auto built = GraphBuilder("reversed")
                   .simd_width(4)
                   .add_node("sink", NodeKind::kSiso, 10.0)
                   .add_node("filter", NodeKind::kSiso, 10.0)
                   .add_edge(1, 0, make_deterministic(1))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error().message;
  const auto keep_even = [](Item&& x, std::vector<Item>& out) {
    if (std::any_cast<std::uint64_t>(x) % 2 == 0) out.push_back(std::move(x));
  };
  const auto forward = [](Item&& x, std::vector<Item>& out) {
    out.push_back(std::move(x));
  };
  const GraphExecutor graph_executor(
      built.value(),
      {[forward](std::vector<Item>&& in, std::vector<Item>& out) {
         forward(std::move(in[0]), out);
       },
       [keep_even](std::vector<Item>&& in, std::vector<Item>& out) {
         keep_even(std::move(in[0]), out);
       }});
  auto lowered = built.value().lower_to_pipeline();
  ASSERT_TRUE(lowered.ok()) << lowered.error().message;
  const runtime::PipelineExecutor chain(std::move(lowered).take(),
                                        {keep_even, forward});

  GraphExecutorConfig config;
  config.firing_intervals = {10.0, 10.0};
  config.input_gap = 10.0;
  const auto inputs = [] {
    return std::vector<Item>{std::uint64_t{2}, std::uint64_t{1},
                             std::uint64_t{3}};
  };
  auto graph_run = graph_executor.run(inputs(), config);
  ASSERT_TRUE(graph_run.ok()) << graph_run.error().message;
  auto chain_run = chain.run(inputs(), config);
  ASSERT_TRUE(chain_run.ok()) << chain_run.error().message;
  runtime::ExecutionMetrics expected = chain_run.value();
  expected.base.nodes = {chain_run.value().base.nodes[1],
                         chain_run.value().base.nodes[0]};
  expect_same_execution(expected, graph_run.value());
  auto reference = graph_executor.run_reference(inputs(), config);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  expect_same_execution(reference.value(), graph_run.value());
}

TEST(GoldenDigest, LinearGraphMatchesRecordedDigest) {
  // Execution digest only: a linear graph's trace carries the graph engine's
  // span and counter names.
  GraphScenario scenario = linear_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.1, 3.0, /*deadline=*/150.0);
  auto run = executor.run(scenario_inputs(300, 21), config);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_GT(run.value().base.inputs_missed, 0u);
  EXPECT_LT(run.value().base.inputs_missed, 300u);
  const std::uint64_t digest = execution_digest(run.value());
  EXPECT_EQ(digest, 0x96b3b0d405abc24eull)
      << std::hex << "execution digest 0x" << digest;
}

TEST(Errors, StageExceptionNamesTheNode) {
  GraphScenario scenario = branching_blast_scenario();
  // Poison the thorough-extension stage (node 3).
  scenario.stages[3] = [](std::vector<Item>&&, std::vector<Item>&) {
    throw std::runtime_error("boom");
  };
  const GraphExecutor executor(scenario.graph, scenario.stages);
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.25, 20.0);

  auto vector_run = executor.run(scenario_inputs(64), config);
  ASSERT_FALSE(vector_run.ok());
  EXPECT_EQ(vector_run.error().code, "stage_exception");
  EXPECT_NE(vector_run.error().message.find("ext_thorough"),
            std::string::npos);

  auto reference = executor.run_reference(scenario_inputs(64), config);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(reference.error().code, "stage_exception");
  EXPECT_EQ(reference.error().message, vector_run.error().message);
}

TEST(Errors, BadConfigsRejectedIdenticallyByBothEngines) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);

  GraphExecutorConfig wrong_count;
  wrong_count.firing_intervals = {100.0, 100.0};
  auto a = executor.run(scenario_inputs(4), wrong_count);
  auto b = executor.run_reference(scenario_inputs(4), wrong_count);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.error().code, "bad_config");
  EXPECT_EQ(a.error().message, b.error().message);

  GraphExecutorConfig below = scenario_config(scenario.graph, 1.25, 20.0);
  below.firing_intervals[3] = 1.0;  // below ext_thorough's service time
  auto c = executor.run(scenario_inputs(4), below);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.error().code, "bad_config");
  EXPECT_NE(c.error().message.find("ext_thorough"), std::string::npos);

  GraphExecutorConfig empty_inputs = scenario_config(scenario.graph, 1.25, 20.0);
  auto d = executor.run({}, empty_inputs);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error().code, "bad_config");
}

TEST(Errors, EventBudgetStopsRunawayRuns) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  GraphExecutorConfig config = scenario_config(scenario.graph, 1.25, 20.0);
  config.max_events = 3;
  auto run = executor.run(scenario_inputs(64), config);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, "event_budget");
  auto reference = executor.run_reference(scenario_inputs(64), config);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(reference.error().code, "event_budget");
}

TEST(Deadline, MissAccountingAgreesBetweenEngines) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  // A deadline tight enough that late roots exist but not so tight that
  // everything misses.
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.25, 4.0, /*deadline=*/9000.0);
  auto vector_run = executor.run(scenario_inputs(256, 5), config);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(256, 5), config);
  ASSERT_TRUE(reference.ok());
  expect_same_execution(reference.value(), vector_run.value());
  const sim::TrialMetrics& base = vector_run.value().base;
  EXPECT_EQ(base.inputs_arrived, 256u);
  EXPECT_LE(base.inputs_on_time + base.inputs_missed, base.inputs_arrived);
}

TEST(Construction, StageRegistrationRulesEnforced) {
  GraphScenario scenario = telemetry_fanin_scenario();
  // Too few stages.
  std::vector<GraphStageFn> short_stages(scenario.stages.begin(),
                                         scenario.stages.end() - 1);
  EXPECT_THROW(GraphExecutor(scenario.graph, short_stages), std::logic_error);
  // A synchronizer must be registered as nullptr.
  std::vector<GraphStageFn> sync_stage = scenario.stages;
  sync_stage[5] = [](std::vector<Item>&&, std::vector<Item>&) {};
  EXPECT_THROW(GraphExecutor(scenario.graph, sync_stage), std::logic_error);
  // A computing node must be callable.
  std::vector<GraphStageFn> null_stage = scenario.stages;
  null_stage[0] = nullptr;
  EXPECT_THROW(GraphExecutor(scenario.graph, null_stage), std::logic_error);
}

TEST(Arrivals, IrregularGapsReplayIdentically) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  GraphExecutorConfig config = scenario_config(scenario.graph, 1.25, 20.0);
  // A constant per-input gap schedule reproduces the fixed-gap run.
  GraphExecutorConfig per_input = config;
  per_input.input_gaps.assign(200, 20.0);
  per_input.input_gap = 999.0;  // must be ignored
  auto fixed = executor.run(scenario_inputs(200, 2), config);
  ASSERT_TRUE(fixed.ok()) << fixed.error().message;
  auto replay = executor.run(scenario_inputs(200, 2), per_input);
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  expect_same_execution(fixed.value(), replay.value());

  // And irregular gaps agree between the vector engine and the oracle.
  GraphExecutorConfig bursty = config;
  bursty.input_gaps.clear();
  for (std::size_t i = 0; i < 200; ++i) {
    bursty.input_gaps.push_back(i % 5 == 0 ? 90.0 : 3.0);
  }
  auto vector_run = executor.run(scenario_inputs(200, 2), bursty);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(200, 2), bursty);
  ASSERT_TRUE(reference.ok());
  expect_same_execution(reference.value(), vector_run.value());
}

}  // namespace
}  // namespace ripple::graph
