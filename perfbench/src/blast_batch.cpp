// blast-batch: the paper's SIMD path. Closed loop of back-to-back jobs, each
// a fixed number of subject windows run through PipelineExecutor::run_batch
// on the typed SoA stages of blast::make_batch_stages, at the ISA the kernel
// registry resolves. No service, socket, controller or std::any in the loop.
//
// Threads: one.
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "batch_common.hpp"
#include "blast/batch_stages.hpp"
#include "blast/measure.hpp"
#include "blast/sequence.hpp"
#include "blast/stages.hpp"
#include "common.hpp"
#include "core/enforced_waits.hpp"
#include "dist/rng.hpp"
#include "runtime/pipeline_executor.hpp"
#include "runtime/reference_executor.hpp"

namespace perfbench {

namespace {

using namespace ripple;

/// Every job is the same: all subject windows. Identical jobs keep the
/// spread of per-job times down to the host's; jobs well under a
/// millisecond give p99 its 1000 samples in each second of the run.
constexpr std::size_t kJobInputs = 4096;
constexpr std::size_t kHomologies = 2;
constexpr std::size_t kHomologyLength = 512;

/// Digest of the canary job (seed 1): pins the workload's computation, so a
/// change to the scenario fails the run instead of silently redefining the
/// benchmark.
constexpr const char* kCanaryDigest =
    "e8ebf4a5caf6e964dd78e0ca2ca8aca4-407";

/// Seeded sequences with a fixed homology layout: query segments, mutated,
/// planted at evenly spaced subject offsets. Every seed then gives a job of
/// the same shape; only the bases differ.
blast::SequencePair make_pair(std::uint64_t seed) {
  dist::Xoshiro256 rng(seed * 0xBF58476D1CE4E5B9ULL + 5);
  blast::SequencePair pair;
  pair.query = blast::random_sequence(1 << 14, rng);
  pair.subject = blast::random_sequence(kJobInputs + 64, rng);
  const std::size_t stride = pair.subject.size() / kHomologies;
  for (std::size_t h = 0; h < kHomologies; ++h) {
    const std::size_t from =
        rng.uniform_below(pair.query.size() - kHomologyLength);
    blast::plant_homology(pair.query, from, pair.subject,
                          h * stride + (stride - kHomologyLength) / 2,
                          kHomologyLength, 0.08, rng);
  }
  return pair;
}

struct BatchSystem {
  blast::SequencePair pair;
  std::unique_ptr<blast::BlastStages> stages;
  std::optional<sdf::PipelineSpec> spec;
  core::EnforcedWaitsSchedule schedule;
  runtime::ExecutorConfig config;
  double solve_ms = 0.0;
  std::unique_ptr<runtime::PipelineExecutor> executor;
  runtime::BatchInputs job;

  /// Traced when `stage_ns` is given: each stage's self time adds to its
  /// slot there, which outlives the system across the run's set-ups.
  BatchSystem(std::uint64_t seed, std::vector<std::int64_t>* stage_ns)
      : pair(make_pair(seed)) {
    stages = std::make_unique<blast::BlastStages>(
        pair, blast::BlastStages::Config{});
    blast::MeasureConfig measure;
    measure.window_count = kJobInputs;
    spec.emplace(blast::measure_pipeline(*stages, measure)
                     .to_pipeline_spec(128)
                     .take());
    const core::EnforcedWaitsStrategy strategy(
        *spec, core::EnforcedWaitsConfig{{2.0, 4.0, 9.0, 6.0}});
    const Cycles tau0 = spec->mean_service_per_input() * 4.0;
    const Cycles deadline = 600.0 * spec->service_time(3);
    const std::int64_t solve_start = now_ns();
    auto solved = strategy.solve(tau0, deadline);
    solve_ms = static_cast<double>(now_ns() - solve_start) / 1e6;
    if (!solved.ok()) throw std::runtime_error("blast-batch: plan infeasible");
    schedule = std::move(solved).take();
    config.firing_intervals = schedule.firing_intervals;
    config.input_gap = tau0;
    config.deadline = deadline;
    config.max_collected_results = 0;

    std::vector<runtime::BatchStage> batch = blast::make_batch_stages(*stages);
    if (stage_ns != nullptr) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].fn = [fn = batch[i].fn, slot = &(*stage_ns)[i]](
                          const runtime::LaneView& lanes,
                          runtime::BatchEmitter& out) {
          const std::int64_t start = now_ns();
          fn(lanes, out);
          *slot += now_ns() - start;
        };
      }
    }
    executor =
        std::make_unique<runtime::PipelineExecutor>(*spec, std::move(batch));
    for (std::size_t w = 0; w < kJobInputs; ++w) {
      job.push(static_cast<std::uint32_t>(w));
    }
  }

  /// One job with every sink result collected.
  util::Result<runtime::ExecutionMetrics> collect() const {
    runtime::ExecutorConfig full = config;
    full.max_collected_results = kJobInputs * 64;
    return executor->run_batch(job, full);
  }
};

std::vector<blast::Alignment> alignments(const runtime::ExecutionMetrics& m) {
  std::vector<blast::Alignment> out;
  for (const runtime::Item& item : m.results) {
    out.push_back(std::any_cast<blast::Alignment>(item));
  }
  return out;
}

Digest job_digest(const runtime::ExecutionMetrics& m) {
  Digest digest;
  for (const blast::Alignment& a : alignments(m)) digest.add(alignment_key(a));
  digest.add(m.base.inputs_missed);
  return digest;
}

/// One job against the per-item oracle (ReferenceExecutor over the classic
/// stage callables on the same windows).
bool matches_oracle(const BatchSystem& sys) {
  auto typed = sys.collect();
  runtime::ExecutorConfig full = sys.config;
  full.max_collected_results = kJobInputs * 64;
  std::vector<runtime::Item> items;
  for (std::size_t w = 0; w < kJobInputs; ++w) {
    items.emplace_back(static_cast<std::uint32_t>(w));
  }
  const runtime::ReferenceExecutor oracle(*sys.spec,
                                          blast::make_item_stages(*sys.stages));
  auto reference = oracle.run(std::move(items), full);
  if (!typed.ok() || !reference.ok()) return false;
  const auto a = alignments(typed.value());
  const auto b = alignments(reference.value());
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (alignment_key(a[i]) != alignment_key(b[i])) return false;
  }
  return typed.value().base.sink_outputs ==
             reference.value().base.sink_outputs &&
         typed.value().base.inputs_missed ==
             reference.value().base.inputs_missed;
}

/// Output digest of the canary job (seed 1).
std::string canary_digest() {
  const BatchSystem canary(1, nullptr);
  auto run = canary.collect();
  return run.ok() ? job_digest(run.value()).hex() : "failed";
}

}  // namespace

std::string blast_batch_input_digest(std::uint64_t seed) {
  Digest digest;
  for (const auto base : make_pair(seed).subject) digest.add(base);
  return digest.hex();
}

PhaseResult run_blast_batch(const Options& options, bool traced) {
  PhaseResult result;
  std::vector<std::int64_t> stage_ns(4, 0);
  std::unique_ptr<BatchSystem> system;
  const BatchTally tally = run_closed_loop(
      options.seconds,
      [&] {
        system.reset();
        system = std::make_unique<BatchSystem>(options.seed,
                                               traced ? &stage_ns : nullptr);
      },
      [&](std::size_t, BatchTally& t) {
        const std::int64_t start = now_ns();
        auto run = system->executor->run_batch(system->job, system->config);
        t.add(kJobInputs, start, now_ns(), run);
      });
  const double rss = peak_rss_mib();
  const std::vector<std::int64_t> stage_self = stage_ns;  // checks add more
  const BatchSystem& sys = *system;

  result.check(tally.completed == tally.offered, "blast-batch: a job failed");
  result.check(matches_oracle(sys),
               "blast-batch: typed job != per-item oracle");
  const std::string canary = canary_digest();
  result.check(canary == kCanaryDigest,
               "blast-batch: canary digest changed: got " + canary);
  tally.report(result, kJobInputs, sys.schedule.predicted_active_fraction,
               rss);
  if (!traced) return result;

  double stage_total = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double in =
        std::max<double>(1.0, static_cast<double>(tally.nodes[i].items_consumed));
    const double ns = static_cast<double>(stage_self[i]);
    stage_total += ns;
    const std::string name = kBlastStageNames[i];
    result.layer("blast." + name + "_ns_per_item", ns / in, "ns",
                 tally.nodes[i].items_consumed);
    result.layer("blast.gain." + name,
                 static_cast<double>(tally.nodes[i].items_produced) / in,
                 "ratio", tally.nodes[i].items_consumed);
  }
  const double job_total = tally.total_job_ns();
  const double roots = static_cast<double>(tally.offered);
  result.layer("runtime.overhead_ns_per_item", (job_total - stage_total) / roots,
               "ns", tally.offered);
  result.layer("runtime.lane_occupancy",
               tally.lane_occupancy(sys.spec->simd_width()), "ratio",
               tally.jobs());
  result.layer("runtime.empty_firing_ratio", tally.empty_firing_ratio(),
               "ratio", tally.jobs());
  result.layer("plan.solve_ms", sys.solve_ms, "ms");
  result.layer("plan.conformance",
               tally.measured_active_fraction /
                   static_cast<double>(tally.jobs()) /
                   sys.schedule.predicted_active_fraction,
               "ratio", tally.jobs());

  result.amdahl_path = "job wall time per root item";
  for (std::size_t i = 0; i < 4; ++i) {
    result.amdahl.push_back({std::string("blast.") + kBlastStageNames[i],
                             static_cast<double>(stage_self[i]) / roots});
  }
  result.amdahl.push_back(
      {"runtime (engine overhead)", (job_total - stage_total) / roots});
  return result;
}

}  // namespace perfbench
