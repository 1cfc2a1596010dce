// The vector-wide event loop (see executor_internal.hpp).
#include <algorithm>
#include <array>
#include <exception>
#include <limits>

#include "runtime/executor_internal.hpp"
#include "runtime/soa_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::runtime::detail {

namespace {

Item default_materialize(const std::uint32_t* fields) {
  std::array<std::uint32_t, kMaxLaneFields> tuple{};
  for (std::size_t f = 0; f < kMaxLaneFields; ++f) tuple[f] = fields[f];
  return Item(tuple);
}

}  // namespace

std::optional<util::Result<ExecutionMetrics>> validate_run_config(
    const EngineTopology& topology, std::size_t input_count,
    const ExecutorConfig& config) {
  using R = util::Result<ExecutionMetrics>;
  const std::vector<EngineNode>& nodes = topology.nodes;
  if (config.firing_intervals.size() != nodes.size()) {
    return R::failure("bad_config", "one firing interval per node required");
  }
  for (NodeIndex u = 0; u < nodes.size(); ++u) {
    if (config.firing_intervals[u] < nodes[u].service_time - 1e-9) {
      return R::failure("bad_config",
                        "firing interval below service time at node '" +
                            nodes[u].name + "'");
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

util::Result<ExecutionMetrics> run_engine(const EngineTopology& topology,
                                          const BatchInputs* typed_inputs,
                                          std::vector<Item>* item_inputs,
                                          const ExecutorConfig& config) {
  using R = util::Result<ExecutionMetrics>;
  const std::size_t input_count =
      typed_inputs != nullptr ? typed_inputs->size() : item_inputs->size();
  if (auto invalid = validate_run_config(topology, input_count, config)) {
    return *std::move(invalid);
  }
  const std::vector<EngineNode>& nodes = topology.nodes;
  const std::size_t n = nodes.size();
  const std::uint32_t v = topology.simd_width;
  const bool per_input_gaps = !config.input_gaps.empty();

  ExecutionMetrics metrics;
  metrics.base.nodes.resize(n);
  metrics.base.vector_width = v;
  metrics.base.sharing_actors = n;
  metrics.base.arm_latency_histogram(config.deadline);

  // Each queue holds its consumer's input representation (a synchronizer
  // forwards items). Capacity only avoids regrowth, so a run of a few
  // inputs (a service batch) does not pay for two full vectors per queue.
  const std::size_t queue_count = topology.queues.size();
  std::vector<SoaQueue> queues(queue_count);
  for (const EngineNode& node : nodes) {
    for (const std::size_t q : node.in_queues) {
      queues[q].configure(node.stage.input_fields,
                          !node.stage.fn || node.stage.carries_items);
      queues[q].reserve(std::min<std::size_t>(2 * v, input_count));
    }
  }
  // In-flight firings: outputs and their lane roots, staged until the
  // fire-end delivers them. Every queue but the arrival queue has one
  // producer, so out-queue q's staging slot is q; sink u's is
  // queue_count + u.
  const auto slot_count = [&](NodeIndex u) {
    return std::max<std::size_t>(1, nodes[u].out_queues.size());
  };
  const auto slot = [&](NodeIndex u, std::size_t s) {
    return nodes[u].out_queues.empty() ? queue_count + u
                                       : nodes[u].out_queues[s];
  };
  std::vector<BatchEmitter> in_flight(queue_count + n);
  std::vector<std::vector<RootId>> in_flight_roots(queue_count + n);
  for (NodeIndex u = 0; u < n; ++u) {
    for (std::size_t s = 0; s < slot_count(u); ++s) {
      in_flight_roots[slot(u, s)].reserve(v);
    }
  }

  std::vector<Cycles> root_arrival(input_count, 0.0);
  std::vector<bool> root_missed(input_count, false);

  std::uint64_t live_items = 0;
  std::size_t next_input = 0;
  // Arrival k's timestamp accumulates gap by gap (never k * gap) so the
  // doubles match the seed engine's event-chained arrival times bit for bit.
  Cycles next_arrival =
      per_input_gaps ? config.input_gaps[0] : config.input_gap;
  bool arrivals_done = false;

  // Lazily materialize every arrival with time <= now into the arrival
  // queue. Safe to run at any event boundary: arrivals only touch that
  // queue, which no fire-end writes, so their seed-engine ordering against
  // same-time fire-ends is immaterial; fire-starts (which do read it) always
  // materialize first.
  SoaQueue& arrival_queue = queues[topology.arrival_queue];
  const auto materialize_arrivals = [&](Cycles now) {
    if (arrivals_done || next_arrival > now) return;
    while (!arrivals_done && next_arrival <= now) {
      const RootId root = static_cast<RootId>(next_input);
      root_arrival[root] = next_arrival;
      ++metrics.base.inputs_arrived;
      if (typed_inputs != nullptr) {
        std::uint32_t fields[kMaxLaneFields];
        for (std::size_t f = 0; f < kMaxLaneFields; ++f) {
          fields[f] = typed_inputs->column(f)[next_input];
        }
        arrival_queue.push_fields(fields, root);
      } else {
        arrival_queue.push_item(std::move((*item_inputs)[next_input]), root);
      }
      ++live_items;
      ++next_input;
      if (next_input == input_count) {
        arrivals_done = true;
      } else {
        next_arrival +=
            per_input_gaps ? config.input_gaps[next_input] : config.input_gap;
      }
    }
  };

  sim::EventQueue<EventPayload> events;
  for (const NodeIndex u : topology.fire_order) {
    events.push(0.0, kPriorityFireStart, {EventPayload::Kind::kFireStart, u});
  }

#if RIPPLE_OBS
  // Per-node spans and per-queue depth counters on the sim timeline,
  // mirroring the stochastic simulators.
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  if (trace.active()) {
    for (NodeIndex u = 0; u < n; ++u) {
      obs::TraceSession::global().set_track_name(
          obs::Domain::kSim, static_cast<std::uint32_t>(u), nodes[u].name);
    }
    for (const EngineQueue& queue : topology.queues) {
      if (!queue.track_label.empty()) {
        obs::TraceSession::global().set_track_name(
            obs::Domain::kSim, queue.track, queue.track_label);
      }
    }
  }
#endif

  SoaQueue::GatherScratch gather_scratch;
  std::vector<Item> item_window;  // dense per-firing item lanes
  std::uint64_t processed = 0;
  while (!events.empty() && processed < config.max_events) {
    const auto event = events.pop();
    ++processed;
    const Cycles now = event.time;
    materialize_arrivals(now);
    const NodeIndex u = event.payload.node;
    const EngineNode& spec = nodes[u];

    if (event.payload.kind == EventPayload::Kind::kFireEnd) {
      if (spec.out_queues.empty()) {
        BatchEmitter& emitter = in_flight[queue_count + u];
        const std::vector<RootId>& lane_roots =
            in_flight_roots[queue_count + u];
        const std::uint32_t* counts = emitter.counts();
        std::size_t out = 0;
        for (std::size_t lane = 0; lane < emitter.lanes(); ++lane) {
          const RootId root = lane_roots[lane];
          for (std::uint32_t c = 0; c < counts[lane]; ++c, ++out) {
            ++metrics.base.sink_outputs;
            const Cycles latency = now - root_arrival[root];
            metrics.base.record_latency(latency);
            if (config.deadline > 0.0 &&
                latency > config.deadline * (1.0 + 1e-12) &&
                !root_missed[root]) {
              root_missed[root] = true;
              ++metrics.base.inputs_missed;
#if RIPPLE_OBS
              if (trace.active()) {
                trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                              "deadline_miss", now, config.deadline - latency);
              }
#endif
            }
            metrics.base.makespan = std::max(metrics.base.makespan, now);
            if (metrics.results.size() < config.max_collected_results) {
              if (emitter.carries_items()) {
                metrics.results.push_back(std::move(emitter.items()[out]));
              } else {
                std::uint32_t fields[kMaxLaneFields] = {0, 0, 0};
                for (std::size_t f = 0; f < emitter.field_count(); ++f) {
                  fields[f] = emitter.column(f)[out];
                }
                metrics.results.push_back(spec.stage.materialize
                                              ? spec.stage.materialize(fields)
                                              : default_materialize(fields));
              }
            }
          }
        }
        live_items -= emitter.total();
      } else {
        for (const std::size_t q : spec.out_queues) {
          queues[q].append(in_flight[q], in_flight_roots[q].data());
        }
      }
#if RIPPLE_OBS
      if (trace.active()) {
        trace.end(obs::Domain::kSim, static_cast<std::uint32_t>(u), spec.span,
                  now);
      }
#endif
      continue;
    }

    // ------------------------------------------------------------ FireStart
    // A firing consumes the matched front lanes of every in-queue.
    sim::NodeMetrics& node = metrics.base.nodes[u];
    std::uint64_t matched = std::numeric_limits<std::uint64_t>::max();
    for (const std::size_t q : spec.in_queues) {
      matched = std::min<std::uint64_t>(matched, queues[q].size());
    }
    const std::uint32_t consumed =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(matched, v));

#if RIPPLE_OBS
    if (trace.active()) {
      for (const std::size_t q : spec.in_queues) {
        trace.counter(obs::Domain::kSim, topology.queues[q].track,
                      topology.queues[q].counter, now,
                      static_cast<double>(queues[q].size()));
      }
      if (consumed > 0) {
        trace.begin(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                    spec.span, now);
      } else if (config.charge_empty_firings) {
        trace.instant(obs::Domain::kSim, static_cast<std::uint32_t>(u),
                      "empty_firing", now, spec.service_time);
      }
    }
#endif

    if (consumed > 0 || config.charge_empty_firings) {
      ++node.firings;
      if (consumed == 0) ++node.empty_firings;
      node.active_time += spec.service_time;
    }
    if (consumed > 0) {
      const BatchStage& stage = spec.stage;
      const std::size_t fan_in = spec.in_queues.size();
      const std::uint64_t consumed_total =
          static_cast<std::uint64_t>(consumed) * fan_in;
      std::uint64_t produced = consumed_total;  // a synchronizer forwards all
      if (!stage.fn) {
        // Synchronizer: in-queue j's lanes move straight into out-queue j.
        for (std::size_t j = 0; j < fan_in; ++j) {
          SoaQueue& queue = queues[spec.in_queues[j]];
          BatchEmitter& emitter = in_flight[slot(u, j)];
          std::vector<RootId>& roots = in_flight_roots[slot(u, j)];
          emitter.reset(consumed, 0, /*carries_items=*/true);
          roots.resize(consumed);
          for (std::uint32_t k = 0; k < consumed; ++k) {
            emitter.emit_item(k, std::move(queue.item_at(k)));
            roots[k] = queue.root_at(k);
          }
          queue.discard_front(consumed);
        }
      } else {
        // Gather the window, fire the stage once on the whole vector, then
        // retire the lanes. Roots follow the first in-queue (a merge
        // re-joins tee'd copies of the same root).
        LaneView view;
        view.lanes = consumed;
        view.fan_in = fan_in;
        const std::size_t first_slot = slot(u, 0);
        BatchEmitter& emitter = in_flight[first_slot];
        std::vector<RootId>& lane_roots = in_flight_roots[first_slot];
        lane_roots.resize(consumed);
        const SoaQueue& first = queues[spec.in_queues[0]];
        if (stage.carries_items) {
          item_window.resize(consumed * fan_in);
          for (std::size_t j = 0; j < fan_in; ++j) {
            SoaQueue& queue = queues[spec.in_queues[j]];
            for (std::uint32_t k = 0; k < consumed; ++k) {
              item_window[j * consumed + k] = std::move(queue.item_at(k));
            }
          }
          for (std::uint32_t k = 0; k < consumed; ++k) {
            lane_roots[k] = first.root_at(k);
          }
          view.items = item_window.data();
        } else {
          RIPPLE_ASSERT(fan_in == 1, "typed stages read one in-queue");
          const SoaQueue::FrontWindow window =
              first.gather_front(consumed, gather_scratch);
          view.field = window.field;
          std::copy(window.roots, window.roots + consumed, lane_roots.begin());
        }
        emitter.reset(consumed, stage.output_fields, stage.carries_items);
        try {
          stage.fn(view, emitter);
        } catch (const std::exception& e) {
          return R::failure("stage_exception",
                            "stage '" + spec.name + "' threw: " + e.what());
        } catch (...) {
          return R::failure("stage_exception",
                            "stage '" + spec.name + "' threw");
        }
        for (const std::size_t q : spec.in_queues) {
          queues[q].discard_front(consumed);
        }
        // A tee replicates its outputs onto every out-queue.
        for (std::size_t s = 1; s < spec.out_queues.size(); ++s) {
          in_flight[slot(u, s)] = emitter;
          in_flight_roots[slot(u, s)] = lane_roots;
        }
        produced = emitter.total() * slot_count(u);
      }

      node.items_consumed += consumed_total;
      node.items_produced += produced;
      live_items += produced;
      live_items -= consumed_total;
      events.push(now + spec.service_time, kPriorityFireEnd,
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

  for (NodeIndex u = 0; u < n; ++u) {
    for (const std::size_t q : nodes[u].in_queues) {
      metrics.base.nodes[u].max_queue_length = std::max<std::uint64_t>(
          metrics.base.nodes[u].max_queue_length, queues[q].high_water());
    }
  }
  metrics.base.inputs_on_time =
      metrics.base.inputs_arrived - metrics.base.inputs_missed;
  if (metrics.base.makespan <= 0.0 && metrics.base.inputs_arrived > 0) {
    // No sink output ever left (everything filtered): fall back to the last
    // arrival's timestamp, which next_arrival holds once arrivals are done.
    metrics.base.makespan =
        per_input_gaps
            ? next_arrival
            : config.input_gap * static_cast<double>(metrics.base.inputs_arrived);
  }
  return metrics;
}

}  // namespace ripple::runtime::detail
