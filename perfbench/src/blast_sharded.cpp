// blast-sharded: the service layer with real work and rate steps. One
// generator thread submits subject windows in-process over 32 sessions at
// Poisson departure times whose rate alternates between two levels on a
// fixed period; a 2-shard PipelineService (no socket, no journal) runs the
// per-item mini-BLAST stages (blast::make_item_stages) through the std::any
// adapter. The steps force re-plans and ledger apportioning; the high level
// stays well under the feasibility floor, so nothing is shed.
//
// Threads: the generator (this thread) and the two shard workers.
#include <any>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "blast/batch_stages.hpp"
#include "blast/measure.hpp"
#include "blast/sequence.hpp"
#include "blast/stages.hpp"
#include "common.hpp"
#include "control/controller.hpp"
#include "core/enforced_waits.hpp"
#include "dist/rng.hpp"
#include "service/service.hpp"
#include "service_probe.hpp"

namespace perfbench {

namespace {

using namespace ripple;

constexpr double kRateLow = 100'000.0;   ///< items/s, first half-period
constexpr double kRateHigh = 200'000.0;  ///< items/s, second half-period
constexpr double kHalfPeriodS = 0.5;
constexpr std::size_t kItemsPerSubmit = 4;
constexpr std::size_t kSessions = 32;
constexpr std::size_t kShards = 2;
/// The high level is planned at this multiple of the feasibility floor.
constexpr double kFloorMargin = 3.0;
/// Stride of the window permutation (prime, so coprime to any window count
/// that is not its multiple — checked at set-up).
constexpr std::uint64_t kStride = 1'000'003;

control::ControllerConfig controller_config() {
  control::ControllerConfig config;
  // Slow enough to ignore Poisson jitter, fast enough (a time constant of
  // 5000 items) to follow each rate step well inside its half-period.
  config.estimator.alpha = 0.0002;
  config.replanner.drift_threshold = 0.1;
  return config;
}

/// Departures (ns offsets) of a Poisson process whose rate alternates
/// between the two levels every half-period.
std::vector<std::int64_t> departure_schedule(std::uint64_t seed,
                                             double seconds) {
  dist::Xoshiro256 rng(seed * 0xD1B54A32D192ED03ULL + 29);
  std::vector<std::int64_t> offsets;
  double t = 0.0;
  for (;;) {
    const auto phase = static_cast<std::uint64_t>(t / kHalfPeriodS);
    const double rate =
        (phase % 2 == 0 ? kRateLow : kRateHigh) / kItemsPerSubmit;
    const double next = t - std::log(1.0 - rng.uniform01()) / rate;
    const double boundary = static_cast<double>(phase + 1) * kHalfPeriodS;
    if (next >= boundary) {  // memoryless: restart at the rate step
      t = boundary;
      if (t >= seconds) break;
      continue;
    }
    t = next;
    if (t >= seconds) break;
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return offsets;
}

blast::SequencePair make_pair(std::uint64_t seed, std::size_t subject_length) {
  dist::Xoshiro256 rng(seed * 0x94D049BB133111EBULL + 3);
  blast::SequencePairConfig config;
  config.subject_length = subject_length;
  config.homology_count = 48;
  return blast::make_sequence_pair(config, rng);
}

struct ShardedSystem {
  std::vector<std::int64_t> schedule;
  blast::SequencePair pair;
  std::unique_ptr<blast::BlastStages> stages;
  std::optional<sdf::PipelineSpec> spec;
  Cycles deadline = 0.0;
  Cycles tau0_low = 0.0;
  double cycles_per_us = 0.0;
  double solve_ms = 0.0;
  std::vector<std::uint32_t> pos_of_root;
  std::vector<std::uint32_t> root_of_pos;
  ServiceProbe probe;
  std::unique_ptr<service::PipelineService> service;
  std::vector<service::SessionId> sessions;

  ShardedSystem(const Options& options, bool traced) {
    schedule = departure_schedule(options.seed, options.seconds);
    const std::size_t roots = schedule.size() * kItemsPerSubmit;
    pair = make_pair(options.seed, roots + 4096);
    stages = std::make_unique<blast::BlastStages>(
        pair, blast::BlastStages::Config{});
    // Measure over the whole subject, so the planted homologies (the only
    // source of sink results) are sampled whatever their placement.
    blast::MeasureConfig measure;
    measure.window_count = 20000;
    measure.stride = std::max<std::size_t>(1, stages->input_count() / 20000);
    spec.emplace(blast::measure_pipeline(*stages, measure)
                     .to_pipeline_spec(128)
                     .take());

    // Plan the high level at kFloorMargin x the feasibility floor: the
    // virtual clock rate follows from the floor.
    deadline = 600.0 * spec->service_time(3);
    const core::EnforcedWaitsStrategy strategy(
        *spec, core::EnforcedWaitsConfig::optimistic(*spec));
    const Cycles floor = strategy.min_feasible_tau0(deadline);
    cycles_per_us = kFloorMargin * floor * kRateHigh / 1e6;
    tau0_low = 1e6 / kRateLow * cycles_per_us;
    const std::int64_t solve_start = now_ns();
    auto solved = strategy.solve(tau0_low, deadline);
    solve_ms = static_cast<double>(now_ns() - solve_start) / 1e6;
    if (!solved.ok()) throw std::runtime_error("blast-sharded: plan infeasible");

    // Each root reads a distinct subject window, spread over the subject.
    const std::size_t windows = stages->input_count();
    if (windows % kStride == 0 || roots > windows) {
      throw std::runtime_error("blast-sharded: window permutation");
    }
    pos_of_root.resize(roots);
    root_of_pos.assign(windows, 0);
    for (std::size_t r = 0; r < roots; ++r) {
      const auto pos = static_cast<std::uint32_t>((r * kStride) % windows);
      pos_of_root[r] = pos;
      root_of_pos[pos] = static_cast<std::uint32_t>(r);
    }

    probe.root_of_input = [this](const runtime::Item& item) {
      return root_of_pos[std::any_cast<std::uint32_t>(item)];
    };
    probe.root_of_sink_input = [this](const runtime::Item& item) {
      return root_of_pos[std::any_cast<blast::ExtendedHit>(item).subject_pos];
    };
    probe.output_key = [](const runtime::Item& item) {
      return alignment_key(std::any_cast<blast::Alignment>(item));
    };
    probe.due_offset = schedule;
    probe.items_per_departure = kItemsPerSubmit;
    if (traced) probe.stage0_ns.assign(roots, 0);
    for (std::size_t k = 0; k < kShards; ++k) {
      auto shard = std::make_unique<ShardProbe>();
      shard->traced = traced;
      probe.shards.push_back(std::move(shard));
    }

    service::ServiceConfig config;
    config.deadline = deadline;
    config.initial_tau0 = tau0_low;
    config.cycles_per_us = cycles_per_us;
    config.controller = controller_config();
    config.shards = kShards;
    service = std::make_unique<service::PipelineService>(
        *spec,
        [this](std::size_t k) {
          return probe.wrap(blast::make_item_stages(*stages), k);
        },
        config);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions.push_back(service->open_session());
    }
    // Shard workers on cores 1-2, clear of the spinning generator.
    pin_this_thread({1, 2});
    service->start();
    pin_this_thread({kGeneratorCpu});
  }

  ~ShardedSystem() {
    if (service) service->stop();
  }
};

/// Single-threaded offline run of the same roots through a fresh per-item
/// stage set: the reference digest of the alignments.
Digest offline_digest(const blast::BlastStages& stages,
                      const std::vector<std::uint32_t>& positions) {
  std::vector<runtime::StageFn> fns = blast::make_item_stages(stages);
  Digest digest;
  std::vector<runtime::Item> level[4];
  for (const std::uint32_t pos : positions) {
    level[0].clear();
    fns[0](runtime::Item(pos), level[0]);
    for (std::size_t s = 1; s < 4; ++s) {
      level[s].clear();
      for (runtime::Item& item : level[s - 1]) fns[s](std::move(item), level[s]);
    }
    for (const runtime::Item& out : level[3]) {
      digest.add(alignment_key(std::any_cast<blast::Alignment>(out)));
    }
  }
  return digest;
}

/// One measured interval of the open loop on a set-up system.
PhaseResult measure(ShardedSystem& sys, bool traced) {
  PhaseResult result;
  service::PipelineService& service = *sys.service;
  const std::size_t departures = sys.schedule.size();
  std::vector<double> lag_ns;
  lag_ns.reserve(departures);
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::size_t depth_max = 0;

  const std::int64_t t0 = now_ns() + 1'000'000;
  sys.probe.t0 = t0;
  CpuWindows cpu;
  cpu.start(t0, 0);
  TimeAverage active;
  active.start(t0, mean_plan_active_fraction(service));
  std::int64_t next_sample = t0;
  for (std::size_t k = 0; k < departures; ++k) {
    const std::int64_t due = t0 + sys.schedule[k];
    wait_until(due);
    const std::int64_t sent_at = now_ns();
    lag_ns.push_back(static_cast<double>(sent_at - due));
    std::vector<runtime::Item> items;
    items.reserve(kItemsPerSubmit);
    for (std::size_t i = 0; i < kItemsPerSubmit; ++i) {
      items.emplace_back(sys.pos_of_root[k * kItemsPerSubmit + i]);
    }
    const service::SubmitOutcome outcome =
        service.submit(sys.sessions[k % kSessions], std::move(items));
    offered += kItemsPerSubmit;
    accepted += outcome.accepted;
    if (sent_at >= next_sample) {
      active.sample(sent_at, mean_plan_active_fraction(service));
      cpu.poll(sent_at, service);
      for (std::size_t s = 0; s < kShards; ++s) {
        depth_max = std::max(depth_max, service.shard_stats(s).queue_depth);
      }
      next_sample = sent_at + 1'000'000;
    }
  }
  const bool drained = await_drained(service, 30'000'000'000LL);
  const std::int64_t t_end = now_ns();
  active.sample(t_end, mean_plan_active_fraction(service));
  cpu.finish(t_end, service.stats().executed_items);
  std::int64_t worker_cpu = 0;
  for (const auto& shard : sys.probe.shards) worker_cpu += shard->worker_cpu_ns();
  const double rss = peak_rss_mib();
  service.stop();

  const service::ServiceStats stats = service.stats();
  const std::uint64_t executed = stats.executed_items;
  Digest live;
  WindowedSamples latency;
  for (const auto& shard : sys.probe.shards) {
    live.sum += shard->outputs.sum;
    live.xr ^= shard->outputs.xr;
    live.count += shard->outputs.count;
    latency.append(shard->latency_ns);
  }
  result.check(drained, "blast-sharded: service did not drain in 30 s");
  result.check(executed == stats.accepted,
               "blast-sharded: executed != accepted");
  result.check(stats.sink_outputs == live.count,
               "blast-sharded: sink probe missed results");
  std::vector<std::uint32_t> positions(sys.pos_of_root.begin(),
                                       sys.pos_of_root.begin() +
                                           static_cast<std::ptrdiff_t>(offered));
  result.check(live == offline_digest(*sys.stages, positions),
               "blast-sharded: alignment digest != single-threaded offline run");

  result.attempted = offered;
  result.failed = (offered - std::min(offered, executed)) +
                  result.failures.size();
  const double seconds = static_cast<double>(t_end - t0) / 1e9;
  const double done = static_cast<double>(std::max<std::uint64_t>(executed, 1));
  result.set_latency(latency);
  result.set("completed_items_per_s", static_cast<double>(executed) / seconds,
             "1/s", executed);
  result.set("cpu_ns_per_item", cpu.steady_ns_per_item(), "ns", executed);
  result.set("delivered_ratio",
             static_cast<double>(executed) / static_cast<double>(offered),
             "ratio", offered);
  result.set("deadline_met_ratio",
             static_cast<double>(executed - std::min(executed,
                                                     stats.deadline_misses)) /
                 static_cast<double>(offered),
             "ratio", offered);
  result.set("active_fraction", active.mean(), "ratio", 1);
  result.set("peak_rss_mb", rss, "MiB", 1);
  result.layer("gen.lag_us_p99", quantile_us(lag_ns, 0.99), "us",
               lag_ns.size());
  if (!traced) return result;

  // Controller replay: the run's offered gaps through a fresh controller,
  // one tick per executed batch's worth of arrivals.
  control::ControllerStats control{};
  std::uint64_t batches = 0;
  for (std::size_t k = 0; k < kShards; ++k) {
    const control::ControllerStats s = service.controller(k).stats();
    control.replans += s.replans;
    control.ticks += s.ticks;
    control.shed_ticks += s.shed_ticks;
    batches += service.shard_stats(k).batches;
  }
  const std::uint64_t per_tick = std::max<std::uint64_t>(
      1, executed / std::max<std::uint64_t>(batches, 1));
  control::Controller replay(*sys.spec,
                             core::EnforcedWaitsConfig::optimistic(*sys.spec),
                             sys.deadline, sys.tau0_low, controller_config());
  const std::int64_t replay_start = now_ns();
  std::uint64_t arrivals = 0;
  std::int64_t previous = 0;
  for (const std::int64_t t : sys.schedule) {
    replay.observe_gap(static_cast<double>(t - previous) / 1e3 *
                       sys.cycles_per_us);
    for (std::size_t i = 1; i < kItemsPerSubmit; ++i) replay.observe_gap(1e-9);
    previous = t;
    arrivals += kItemsPerSubmit;
    if (arrivals % per_tick < kItemsPerSubmit) replay.tick();
  }
  const double replay_ns = static_cast<double>(now_ns() - replay_start);

  std::vector<double> queue_wait;
  std::vector<double> exec;
  std::array<double, kProbeStages> stage_ns{};
  std::array<double, kProbeStages> stage_in{};
  std::array<double, kProbeStages> stage_out{};
  for (const auto& shard : sys.probe.shards) {
    queue_wait.insert(queue_wait.end(), shard->queue_wait_ns.begin(),
                      shard->queue_wait_ns.end());
    exec.insert(exec.end(), shard->exec_ns.begin(), shard->exec_ns.end());
    for (std::size_t i = 0; i < kProbeStages; ++i) {
      stage_ns[i] += static_cast<double>(shard->stage_ns[i]);
      stage_in[i] += static_cast<double>(shard->stage_in[i]);
      stage_out[i] += static_cast<double>(shard->stage_out[i]);
    }
  }
  double stage_total = 0.0;
  for (double v : stage_ns) stage_total += v;
  double queue_mean = 0.0;
  for (double v : queue_wait) queue_mean += v;
  queue_mean /= std::max<double>(1.0, static_cast<double>(queue_wait.size()));
  double exec_mean = 0.0;
  for (double v : exec) exec_mean += v;
  exec_mean /= std::max<double>(1.0, static_cast<double>(exec.size()));

  result.layer("service.queue_wait_us_p50", quantile_us(queue_wait, 0.50),
               "us", queue_wait.size());
  result.layer("service.queue_wait_us_p99", quantile_us(queue_wait, 0.99),
               "us", queue_wait.size());
  result.layer("service.items_per_drain",
               static_cast<double>(executed) /
                   std::max<double>(1.0, static_cast<double>(batches)),
               "count", batches);
  result.layer("service.queue_depth_max", static_cast<double>(depth_max),
               "count");
  result.layer("service.rejected_backpressure",
               static_cast<double>(stats.rejected_backpressure), "count");
  result.layer("service.shed", static_cast<double>(stats.shed), "count");
  result.layer("control.replans", static_cast<double>(control.replans),
               "count");
  result.layer("control.ticks", static_cast<double>(control.ticks), "count");
  result.layer("control.shed_ticks", static_cast<double>(control.shed_ticks),
               "count");
  result.layer("control.replay_ns_per_arrival",
               replay_ns / static_cast<double>(std::max<std::uint64_t>(
                               arrivals, 1)),
               "ns", arrivals);
  result.layer("runtime.exec_us_p50", quantile_us(exec, 0.50), "us",
               exec.size());
  result.layer("runtime.exec_us_p99", quantile_us(exec, 0.99), "us",
               exec.size());
  result.layer("runtime.overhead_ns_per_item",
               (static_cast<double>(worker_cpu) - stage_total) / done, "ns",
               executed);
  for (std::size_t i = 0; i < kProbeStages; ++i) {
    const std::string name = kBlastStageNames[i];
    result.layer("blast." + name + "_ns_per_item",
                 stage_ns[i] / std::max(1.0, stage_in[i]), "ns",
                 static_cast<std::uint64_t>(stage_in[i]));
    result.layer("blast.gain." + name,
                 stage_out[i] / std::max(1.0, stage_in[i]), "ratio",
                 static_cast<std::uint64_t>(stage_in[i]));
  }
  result.layer("plan.solve_ms", sys.solve_ms, "ms");

  const double stage_per_item = stage_total / done;
  result.amdahl_path = "queue_wait + exec per sink result (mean)";
  result.amdahl = {
      {"service (ring, drain, tick, wake-up)", queue_mean},
      {"blast (per-item stage self time per root)", stage_per_item},
      {"runtime (exec minus stage self time)",
       std::max(0.0, exec_mean - stage_per_item)},
  };
  return result;
}

}  // namespace

std::string blast_sharded_input_digest(std::uint64_t seed) {
  Digest digest;
  for (const std::int64_t t : departure_schedule(seed, 1.0)) {
    digest.add(static_cast<std::uint64_t>(t));
  }
  const blast::SequencePair pair = make_pair(seed, 1 << 16);
  for (const auto base : pair.subject) digest.add(base);
  return digest.hex();
}

PhaseResult run_blast_sharded(const Options& options, bool traced) {
  // Cold set-ups before and after the measured interval, so setup_s samples
  // the host at both ends of the run.
  std::unique_ptr<ShardedSystem> system;
  const auto setup = [&](int) {
    system.reset();
    system = std::make_unique<ShardedSystem>(options, traced);
  };
  std::vector<double> setups = repeat_setups(setup);
  PhaseResult result = measure(*system, traced);
  system.reset();
  const std::vector<double> after = repeat_setups(setup);
  setups.insert(setups.end(), after.begin(), after.end());
  result.set_setup(std::move(setups));
  return result;
}

}  // namespace perfbench
