// wire-journal: the ROADMAP headline path. One TCP connection sends
// ripple.frame.v1 item batches at Poisson departure times (open loop, one
// fixed rate) into an IngestServer feeding a 1-shard PipelineService with an
// ArrivalJournal attached, running the synthetic stages on the canonical
// Table-1 pipeline. Stage work is near zero, so the socket, the ingest ring
// and drain, the controller tick and the journal carry the cost.
//
// Threads: the generator (this thread, also the client), the server loop,
// and the one shard worker.
#include <any>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "blast/canonical.hpp"
#include "common.hpp"
#include "control/controller.hpp"
#include "core/enforced_waits.hpp"
#include "dist/rng.hpp"
#include "net/frame.hpp"
#include "net/journal.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "service_probe.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace ripple;

constexpr double kFramesPerSecond = 5000.0;
constexpr std::size_t kItemsPerFrame = 16;
/// Virtual cycles per wall microsecond: the offered 12.5 us item gap maps to
/// tau0 = 12.5 cycles, about 4x the Table-1 pipeline's feasibility floor.
constexpr double kCyclesPerUs = 1.0;
constexpr Cycles kDeadline = 40000.0;
constexpr Cycles kOfferedTau0 =
    1e6 / (kFramesPerSecond * kItemsPerFrame) * kCyclesPerUs;

control::ControllerConfig controller_config() {
  control::ControllerConfig config;
  // Items arrive 16 to a frame, so per-item gaps are mostly zero: a slow
  // EWMA and a wide drift band keep a steady offered rate from re-planning
  // on frame-level jitter.
  config.estimator.alpha = 0.0005;
  config.replanner.drift_threshold = 0.25;
  return config;
}

service::ServiceConfig service_config() {
  service::ServiceConfig config;
  config.deadline = kDeadline;
  config.initial_tau0 = kOfferedTau0;
  config.cycles_per_us = kCyclesPerUs;
  config.controller = controller_config();
  return config;
}

/// Poisson frame departures over `seconds`, as ns offsets from the start.
std::vector<std::int64_t> departure_schedule(std::uint64_t seed,
                                             double seconds) {
  dist::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(seconds * kFramesPerSecond * 1.1));
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform01()) / kFramesPerSecond;
    if (t >= seconds) break;
    offsets.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return offsets;
}

/// Forwarding observer that times the journal's drain hook (traced only).
class TimedObserver final : public service::IngestObserver {
 public:
  explicit TimedObserver(service::IngestObserver& inner) : inner_(inner) {}
  void on_session_open(service::SessionId id) override {
    inner_.on_session_open(id);
  }
  void on_session_close(service::SessionId id) override {
    inner_.on_session_close(id);
  }
  void on_drain(const std::vector<service::ArrivalRecord>& admitted,
                const std::vector<Cycles>& shed) override {
    const std::int64_t start = now_ns();
    inner_.on_drain(admitted, shed);
    const double took = static_cast<double>(now_ns() - start);
    drain_ns.push_back(took);
    weighted_ns += took * static_cast<double>(admitted.size());
    items += admitted.size();
    max_depth = std::max(max_depth, admitted.size());
  }
  void on_batch_latency(Cycles worst) override {
    inner_.on_batch_latency(worst);
  }

  std::vector<double> drain_ns;
  double weighted_ns = 0.0;  ///< sum of drain time x items waiting on it
  std::uint64_t items = 0;
  std::size_t max_depth = 0;

 private:
  service::IngestObserver& inner_;
};

/// Everything a deployment starts before the first frame is sent.
struct WireSystem {
  sdf::PipelineSpec spec = blast::canonical_blast_pipeline();
  std::vector<std::int64_t> schedule;
  ServiceProbe probe;
  std::string journal_dir;
  std::unique_ptr<service::PipelineService> service;
  std::unique_ptr<net::ArrivalJournal> journal;
  std::unique_ptr<TimedObserver> timed;
  std::unique_ptr<net::IngestServer> server;
  std::unique_ptr<net::IngestClient> client;

  WireSystem(const Options& options, bool traced, int instance) {
    schedule = departure_schedule(options.seed, options.seconds);
    const std::size_t roots = schedule.size() * kItemsPerFrame;
    probe.root_of_input = [](const runtime::Item& item) {
      return std::any_cast<std::uint64_t>(item);
    };
    probe.root_of_sink_input = probe.root_of_input;
    probe.due_offset = schedule;
    probe.items_per_departure = kItemsPerFrame;
    if (traced) probe.stage0_ns.assign(roots, 0);
    auto shard = std::make_unique<ShardProbe>();
    shard->traced = traced;
    probe.shards.push_back(std::move(shard));

    const service::StageFactory inner =
        service::synthetic_stage_factory(spec);
    service = std::make_unique<service::PipelineService>(
        spec,
        [this, inner](std::size_t k) { return probe.wrap(inner(k), k); },
        service_config());

    journal_dir = (fs::path(options.scratch_dir) /
                   ("journal-" + std::to_string(instance)))
                      .string();
    fs::remove_all(journal_dir);
    net::JournalConfig jconfig;
    jconfig.dir = journal_dir;
    jconfig.fingerprint = net::ControlFingerprint::from(
        kDeadline, kOfferedTau0, controller_config());
    journal = std::make_unique<net::ArrivalJournal>(jconfig,
                                                    &service->controller());
    if (traced) {
      timed = std::make_unique<TimedObserver>(*journal);
      service->set_ingest_observer(timed.get());
    } else {
      service->set_ingest_observer(journal.get());
    }
    // The shard worker and the server loop share core 1: the server's
    // hand-off to the worker then never needs a cross-core wake-up, and
    // neither competes with the spinning generator on core 0.
    pin_this_thread({1});
    service->start();
    server =
        std::make_unique<net::IngestServer>(*service, net::ServerConfig{});
    server->start();
    pin_this_thread({kGeneratorCpu});
    client = std::make_unique<net::IngestClient>("127.0.0.1", server->port());
    client->open_session(1);
  }

  void shutdown() {
    client.reset();
    if (server) server->stop();
    if (service) service->stop();
  }

  ~WireSystem() {
    shutdown();
    server.reset();
    service.reset();
    journal.reset();
    std::error_code ec;
    fs::remove_all(journal_dir, ec);
  }
};

/// Sink outputs the synthetic stages must produce for `executed` roots: each
/// stage emits floor(n * gain) over n calls in 32.32 fixed point.
std::uint64_t expected_sink_outputs(const sdf::PipelineSpec& spec,
                                    std::uint64_t executed) {
  std::uint64_t n = executed;
  for (std::size_t i = 0; i + 1 < spec.size(); ++i) {
    const auto gain_fp =
        static_cast<std::uint64_t>(spec.mean_gain(i) * 4294967296.0);
    n = (n * gain_fp) >> 32;  // n < 2^31 items, gain_fp < 2^33: no overflow
  }
  return n;
}

bool checkpoints_equal(const control::ControllerCheckpoint& a,
                       const control::ControllerCheckpoint& b) {
  return a.estimator.prior == b.estimator.prior &&
         a.estimator.ewma == b.estimator.ewma &&
         a.estimator.samples == b.estimator.samples &&
         a.estimator.window == b.estimator.window &&
         a.replanner.ticks == b.replanner.ticks &&
         a.replanner.last_replan_tick == b.replanner.last_replan_tick &&
         a.replanner.replans == b.replanner.replans &&
         a.replanner.plan_epoch == b.replanner.plan_epoch &&
         a.replanner.planned_tau0 == b.replanner.planned_tau0 &&
         a.replanner.shedding == b.replanner.shedding &&
         a.replanner.firing_intervals == b.replanner.firing_intervals &&
         a.worst_latency == b.worst_latency &&
         a.stats.ticks == b.stats.ticks && a.stats.replans == b.stats.replans &&
         a.stats.shed_ticks == b.stats.shed_ticks;
}

/// One measured interval of the open loop on a set-up system.
PhaseResult measure(WireSystem& sys, bool traced) {
  PhaseResult result;
  service::PipelineService& service = *sys.service;
  ShardProbe& shard = *sys.probe.shards[0];
  const std::size_t frames = sys.schedule.size();
  std::vector<std::uint64_t> items(kItemsPerFrame);
  std::vector<double> lag_ns;
  std::vector<double> send_ns;
  lag_ns.reserve(frames);
  if (traced) send_ns.reserve(frames);

  const std::int64_t t0 = now_ns() + 1'000'000;
  sys.probe.t0 = t0;
  CpuWindows cpu;
  cpu.start(t0, 0);
  TimeAverage active;
  active.start(t0, mean_plan_active_fraction(service));
  std::int64_t next_sample = t0;
  for (std::size_t k = 0; k < frames; ++k) {
    const std::int64_t due = t0 + sys.schedule[k];
    wait_until(due);
    const std::int64_t sent_at = now_ns();
    lag_ns.push_back(static_cast<double>(sent_at - due));
    for (std::size_t i = 0; i < kItemsPerFrame; ++i) {
      items[i] = k * kItemsPerFrame + i;
    }
    sys.client->send_items(1, items.data(), items.size());
    if (traced) send_ns.push_back(static_cast<double>(now_ns() - sent_at));
    if (sent_at >= next_sample) {
      active.sample(sent_at, mean_plan_active_fraction(service));
      cpu.poll(sent_at, service);
      next_sample = sent_at + 1'000'000;
      sys.client->poll_notifications();
    }
  }
  sys.client->close_session(1);
  sys.client->finish();
  const bool drained = await_drained(service, 30'000'000'000LL);
  const std::int64_t t_end = now_ns();
  active.sample(t_end, mean_plan_active_fraction(service));
  cpu.finish(t_end, service.stats().executed_items);
  const std::int64_t worker_cpu = shard.worker_cpu_ns();
  const double rss = peak_rss_mib();
  sys.shutdown();
  sys.journal->flush();

  const std::uint64_t sent = frames * kItemsPerFrame;
  const service::ServiceStats stats = service.stats();
  const net::ServerStats net_stats = sys.server->stats();
  const std::uint64_t executed = stats.executed_items;
  result.check(drained, "wire-journal: service did not drain in 30 s");
  result.check(net_stats.items_in == sent,
               "wire-journal: server items_in != items sent");
  result.check(executed == stats.accepted,
               "wire-journal: executed != accepted");
  result.check(stats.sink_outputs == expected_sink_outputs(sys.spec, executed),
               "wire-journal: sink count != synthetic-gain expectation");
  result.check(shard.latency_ns.size() == stats.sink_outputs,
               "wire-journal: sink probe missed results");

  // Recovery replays the journal into a fresh controller; it must land on
  // the live shard-0 controller's state exactly.
  control::Controller recovered(sys.spec,
                                core::EnforcedWaitsConfig::optimistic(sys.spec),
                                kDeadline, kOfferedTau0, controller_config());
  const std::int64_t replay_start = now_ns();
  const net::RecoveryReport report = net::recover_journal(
      sys.journal_dir,
      net::ControlFingerprint::from(kDeadline, kOfferedTau0,
                                    controller_config()),
      recovered);
  const double replay_ns = static_cast<double>(now_ns() - replay_start);
  result.check(report.torn_bytes == 0, "wire-journal: torn journal tail");
  result.check(checkpoints_equal(recovered.checkpoint(),
                                 service.controller(0).checkpoint()),
               "wire-journal: recovered controller != live controller");

  result.attempted = sent;
  result.failed = (sent - std::min(sent, executed)) + result.failures.size();
  const double seconds = static_cast<double>(t_end - t0) / 1e9;
  const double done = static_cast<double>(std::max<std::uint64_t>(executed, 1));
  result.set_latency(shard.latency_ns);
  result.set("completed_items_per_s", static_cast<double>(executed) / seconds,
             "1/s", executed);
  result.set("cpu_ns_per_item", cpu.steady_ns_per_item(), "ns", executed);
  result.set("delivered_ratio",
             static_cast<double>(executed) / static_cast<double>(sent),
             "ratio", sent);
  result.set("deadline_met_ratio",
             static_cast<double>(executed - std::min(executed,
                                                     stats.deadline_misses)) /
                 static_cast<double>(sent),
             "ratio", sent);
  result.set("active_fraction", active.mean(), "ratio", 1);
  result.set("peak_rss_mb", rss, "MiB", 1);

  // Generator validity is recorded on every phase; the rest only traced.
  const double lag_p99_us = quantile_us(lag_ns, 0.99);
  result.layer("gen.lag_us_p99", lag_p99_us, "us", lag_ns.size());
  if (!traced) return result;

  const control::ControllerStats control = service.controller(0).stats();
  const net::JournalStats jstats = sys.journal->stats();
  const core::EnforcedWaitsStrategy strategy(
      sys.spec, core::EnforcedWaitsConfig::optimistic(sys.spec));
  const std::int64_t solve_start = now_ns();
  result.check(strategy.solve(kOfferedTau0, kDeadline).ok(),
               "wire-journal: plan infeasible at the offered rate");
  result.layer("plan.solve_ms",
               static_cast<double>(now_ns() - solve_start) / 1e6, "ms");
  const double n_sends = static_cast<double>(send_ns.size());
  double send_total = 0.0;
  for (double v : send_ns) send_total += v;
  double stage_total = 0.0;
  for (std::size_t i = 0; i < kProbeStages; ++i) {
    stage_total += static_cast<double>(shard.stage_ns[i]);
  }
  std::vector<double> queue_wait = shard.queue_wait_ns;
  std::vector<double> exec = shard.exec_ns;
  std::vector<double> drains = sys.timed->drain_ns;
  double queue_mean = 0.0;
  for (double v : queue_wait) queue_mean += v;
  queue_mean /= std::max<double>(1.0, static_cast<double>(queue_wait.size()));
  double exec_mean = 0.0;
  for (double v : exec) exec_mean += v;
  exec_mean /= std::max<double>(1.0, static_cast<double>(exec.size()));
  double journal_total = 0.0;
  for (double v : drains) journal_total += v;

  result.layer("net.send_us_p50", quantile_us(send_ns, 0.50), "us",
               send_ns.size());
  result.layer("net.send_us_p99", quantile_us(send_ns, 0.99), "us",
               send_ns.size());
  result.layer("net.bytes_per_item",
               static_cast<double>(net::kFrameHeaderSize + 4 +
                                   8 * kItemsPerFrame) /
                   static_cast<double>(kItemsPerFrame),
               "B", frames);
  result.layer("net.rejected_items",
               static_cast<double>(net_stats.items_rejected), "count");
  result.layer("journal.on_drain_us_p50", quantile_us(drains, 0.50), "us",
               drains.size());
  result.layer("journal.on_drain_us_p99", quantile_us(drains, 0.99), "us",
               drains.size());
  result.layer("journal.bytes_per_item",
               static_cast<double>(jstats.bytes) /
                   static_cast<double>(std::max<std::uint64_t>(
                       jstats.arrivals, 1)),
               "B", jstats.arrivals);
  result.layer("journal.commits", static_cast<double>(jstats.commits),
               "count");
  result.layer("service.queue_wait_us_p50", quantile_us(queue_wait, 0.50),
               "us", queue_wait.size());
  result.layer("service.queue_wait_us_p99", quantile_us(queue_wait, 0.99),
               "us", queue_wait.size());
  result.layer("service.items_per_drain",
               static_cast<double>(sys.timed->items) /
                   std::max<double>(1.0, static_cast<double>(drains.size())),
               "count", drains.size());
  result.layer("service.queue_depth_max",
               static_cast<double>(sys.timed->max_depth), "count");
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
                               report.arrivals_replayed, 1)),
               "ns", report.arrivals_replayed);
  result.layer("runtime.exec_us_p50", quantile_us(exec, 0.50), "us",
               exec.size());
  result.layer("runtime.exec_us_p99", quantile_us(exec, 0.99), "us",
               exec.size());
  result.layer("runtime.overhead_ns_per_item",
               (static_cast<double>(worker_cpu) - stage_total -
                journal_total) /
                   done,
               "ns", executed);

  // Amdahl: mean blocking path per root = queue wait + execution.
  const double net_per_item = send_total / std::max(1.0, n_sends);
  const double journal_per_item =
      sys.timed->weighted_ns /
      std::max<double>(1.0, static_cast<double>(sys.timed->items));
  const double stage_per_item = stage_total / done;
  result.amdahl_path = "queue_wait + exec per root (mean)";
  result.amdahl = {
      {"net (client send)", net_per_item},
      {"net journal (on_drain)", journal_per_item},
      {"service (ring, drain, tick; remainder of queue wait)",
       std::max(0.0, queue_mean - net_per_item - journal_per_item)},
      {"stages (synthetic self time)", stage_per_item},
      {"runtime (exec minus stage self time)",
       std::max(0.0, exec_mean - stage_per_item)},
  };
  return result;
}

}  // namespace

std::string wire_journal_input_digest(std::uint64_t seed) {
  Digest digest;
  for (const std::int64_t t : departure_schedule(seed, 1.0)) {
    digest.add(static_cast<std::uint64_t>(t));
  }
  return digest.hex();
}

PhaseResult run_wire_journal(const Options& options, bool traced) {
  // Cold set-ups before and after the measured interval, so setup_s samples
  // the host at both ends of the run.
  std::unique_ptr<WireSystem> system;
  const auto setup = [&](int r) {
    system.reset();
    system = std::make_unique<WireSystem>(options, traced, r);
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
