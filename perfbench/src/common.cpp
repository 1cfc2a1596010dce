#include "common.hpp"

#include "blast/stages.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void pin_this_thread(std::initializer_list<int> cpus) {
  const unsigned n = std::thread::hardware_concurrency();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    if (static_cast<unsigned>(cpu) >= n) return;  // host too small: no pin
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

void wait_until(std::int64_t due_ns) {
  // Spin: on a virtual machine a sleeping thread's wake-up can be late by
  // hundreds of microseconds, which would show up as generator lag.
  while (now_ns() < due_ns) {
  }
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) --index;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double steady_cost(std::vector<double> values) {
  return quantile(values, 0.75);
}

std::vector<double> repeat_setups(const std::function<void(int)>& make) {
  std::vector<double> seconds;
  const std::int64_t budget_end =
      now_ns() + static_cast<std::int64_t>(kSetupBudgetS * 1e9);
  for (int r = 0; r < kSetupMaxRepeats; ++r) {
    if (r >= kSetupMinRepeats && now_ns() >= budget_end) break;
    const std::int64_t start = now_ns();
    make(r);
    seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return seconds;
}

std::uint64_t alignment_key(const ripple::blast::Alignment& a) {
  return (static_cast<std::uint64_t>(a.subject_pos) << 32) ^
         (static_cast<std::uint64_t>(a.query_pos) << 8) ^
         static_cast<std::uint32_t>(a.score);
}

std::string Digest::hex() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64 "-%" PRIu64,
                sum, xr, count);
  return buf;
}

void PhaseResult::check(bool ok, const std::string& what) {
  if (!ok) failures.push_back(what);
}

void PhaseResult::set_setup(std::vector<double> setup_seconds) {
  const auto n = setup_seconds.size();
  set("setup_s", median(std::move(setup_seconds)), "s", n);
}

double WindowedSamples::steady_quantile(double q,
                                        std::size_t min_samples) const {
  std::map<std::uint32_t, std::vector<double>> by_window;
  for (std::size_t i = 0; i < values.size(); ++i) {
    by_window[windows[i]].push_back(values[i]);
  }
  std::vector<std::vector<double>> buckets;
  std::vector<double> open;
  for (auto& [window, samples] : by_window) {
    open.insert(open.end(), samples.begin(), samples.end());
    if (open.size() >= min_samples) {
      buckets.push_back(std::move(open));
      open.clear();
    }
  }
  if (!open.empty()) {
    if (buckets.empty()) {
      buckets.push_back(std::move(open));
    } else {
      buckets.back().insert(buckets.back().end(), open.begin(), open.end());
    }
  }
  std::vector<double> per_window;
  for (auto& bucket : buckets) per_window.push_back(quantile(bucket, q));
  return steady_cost(std::move(per_window));
}

void PhaseResult::set_latency(const WindowedSamples& latency_ns) {
  const auto n = latency_ns.size();
  // p99 is only reported with at least ten samples beyond it.
  check(n >= kMinP99Samples, "latency: fewer than 1000 samples for p99");
  // Reported with the layers, unbounded: on the open-loop workloads the
  // percentiles follow the host's vCPU wake-ups more than the program
  // (perfbench/README.md, "Noise audit").
  layer("e2e.latency_p50_ms",
        latency_ns.steady_quantile(0.50, kMinP99Samples) / 1e6, "ms", n);
  layer("e2e.latency_p99_ms",
        latency_ns.steady_quantile(0.99, kMinP99Samples) / 1e6, "ms", n);
}

}  // namespace perfbench
