// Shared plumbing for the benchmark workloads: clocks, CPU and memory
// probes, percentile helpers, the per-phase result record and its JSON
// rendering. Everything here lives outside the library under test; the
// workloads reach the library only through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace ripple::blast {
struct Alignment;
}  // namespace ripple::blast

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();
/// Peak resident set (VmHWM) of this process, MiB.
double peak_rss_mib();

/// Busy-wait until `due_ns` (the generator's departure clock).
void wait_until(std::int64_t due_ns);

/// Restrict the calling thread (and threads it creates later) to `cpus`.
/// The open-loop generator spins on core 0; the threads of the system under
/// test are started from a thread pinned to the other cores, so the spinner
/// never shares their run queue. No-op on hosts with too few cores.
void pin_this_thread(std::initializer_list<int> cpus);
inline constexpr int kGeneratorCpu = 0;

/// Nearest-rank quantile; sorts `values` in place. 0 for an empty set.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// The level a run reports for a cost sampled many times over its interval
/// (time per job, CPU per item, a window's latency percentile): the upper
/// quartile of the samples. On the reference host, CPU-bound code runs in a
/// slow and a fast regime (about 1.35x apart) that alternate every few
/// seconds, the slow one most of the time; the upper quartile stays in the
/// slow regime unless the fast one holds three quarters of the run, where a
/// median flips between the two at one half (README.md, "End-to-end
/// metrics").
double steady_cost(std::vector<double> values);

/// splitmix64 finalizer, for digests and input scrambling.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Digest key of one mini-BLAST alignment.
std::uint64_t alignment_key(const ripple::blast::Alignment& a);
/// The four mini-BLAST stages, in pipeline order (per-layer metric names).
inline constexpr const char* kBlastStageNames[4] = {
    "seed_filter", "seed_expand", "ungapped", "gapped"};

/// Order-independent multiset digest: sum and xor of mixed element hashes.
struct Digest {
  std::uint64_t sum = 0;
  std::uint64_t xr = 0;
  std::uint64_t count = 0;
  void add(std::uint64_t value) {
    const std::uint64_t h = mix64(value);
    sum += h;
    xr ^= h;
    ++count;
  }
  bool operator==(const Digest& other) const {
    return sum == other.sum && xr == other.xr && count == other.count;
  }
  std::string hex() const;
};

/// Samples tagged with the one-second window of the run they belong to.
/// Percentiles are taken per window and reported as the steady_cost over
/// windows: a host stall that lands in one second moves one window, not
/// the whole run's tail.
struct WindowedSamples {
  std::vector<double> values;
  std::vector<std::uint32_t> windows;

  void add(double value, std::uint32_t window) {
    values.push_back(value);
    windows.push_back(window);
  }
  void append(const WindowedSamples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
    windows.insert(windows.end(), other.windows.begin(), other.windows.end());
  }
  std::size_t size() const { return values.size(); }
  /// steady_cost over windows of each window's q-quantile; consecutive
  /// windows are merged until each holds at least `min_samples` values.
  double steady_quantile(double q, std::size_t min_samples) const;
};

/// Window index of a time offset from the start of the measured interval.
inline std::uint32_t window_of(std::int64_t offset_ns) {
  return offset_ns <= 0 ? 0 : static_cast<std::uint32_t>(offset_ns / 1'000'000'000);
}

/// Samples that have at least ten values beyond the 99th percentile.
inline constexpr std::size_t kMinP99Samples = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// One Amdahl-table row: a layer's self time per completed root item.
struct AmdahlRow {
  std::string layer;
  double ns_per_item = 0.0;
};

/// What one measured phase of a workload produced.
struct PhaseResult {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;  ///< filled on traced phases only
  std::vector<AmdahlRow> amdahl;
  std::string amdahl_path;  ///< what the Amdahl rows add up to
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< failed output checks

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1) {
    end_to_end[name] = Metric{value, unit, samples};
  }
  void layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples = 1) {
    layers[name] = Metric{value, unit, samples};
  }
  /// Record an output check; a failed one fails the run.
  void check(bool ok, const std::string& what);
  /// The set-up median over repeated cold set-ups.
  void set_setup(std::vector<double> setup_seconds);
  /// Latency percentiles (ms) from per-result nanosecond samples.
  void set_latency(const WindowedSamples& latency_ns);
};

/// Runs one phase of a workload (tracing on or off).
using WorkloadFn = std::function<PhaseResult(const Options&, bool traced)>;

PhaseResult run_wire_journal(const Options& options, bool traced);
PhaseResult run_blast_sharded(const Options& options, bool traced);
PhaseResult run_blast_batch(const Options& options, bool traced);
PhaseResult run_dag_batch(const Options& options, bool traced);

/// Digests of the inputs each workload generates for `seed` (self-tests
/// check that seeds change inputs without changing the metric set).
std::string wire_journal_input_digest(std::uint64_t seed);
std::string blast_sharded_input_digest(std::uint64_t seed);
std::string blast_batch_input_digest(std::uint64_t seed);
std::string dag_batch_input_digest(std::uint64_t seed);

/// Repeat cold set-ups of an open-loop workload: at least kSetupMinRepeats,
/// then more until kSetupBudgetS seconds have passed or kSetupMaxRepeats
/// were made. `make(r)` builds set-up number r into the caller's slot
/// (destroying the previous one first); returns each set-up's seconds.
inline constexpr int kSetupMinRepeats = 15;
inline constexpr int kSetupMaxRepeats = 400;
inline constexpr double kSetupBudgetS = 0.75;
std::vector<double> repeat_setups(const std::function<void(int)>& make);

/// Percentile helper returning microseconds from nanosecond samples.
inline double quantile_us(std::vector<double>& ns, double q) {
  return quantile(ns, q) / 1e3;
}

}  // namespace perfbench
