// Benchmark runner: runs one workload and prints its metrics, with a final
// JSON line for perfbench/run.py to validate and reshape.
//
//   ripple_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--scratch <dir>]
//   ripple_perfbench --input-digest --workload <name> --seed <n>
//
// Untraced, the whole interval measures the end-to-end metrics. Traced, the
// interval is split: an untraced half and a traced half, so the tracing
// overhead (traced minus untraced) is printed from one run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "blast/simd_kernels.hpp"
#include "common.hpp"
#include "device/dispatch.hpp"
#include "device/kernel_registry.hpp"

namespace {

using namespace perfbench;

struct Workload {
  WorkloadFn run;
  std::string (*input_digest)(std::uint64_t);
  int threads;  ///< threads the workload runs, the generator included
};

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"wire-journal", {run_wire_journal, wire_journal_input_digest, 3}},
      {"blast-sharded", {run_blast_sharded, blast_sharded_input_digest, 3}},
      {"blast-batch", {run_blast_batch, blast_batch_input_digest, 1}},
      {"dag-batch", {run_dag_batch, dag_batch_input_digest, 1}},
  };
  return table;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
        << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "}";
  return out.str();
}

void print_metrics(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("  %-36s %16.6g %-6s (n=%llu)\n", name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
}

void print_amdahl(const PhaseResult& phase) {
  if (phase.amdahl.empty()) return;
  double total = 0.0;
  for (const AmdahlRow& row : phase.amdahl) total += row.ns_per_item;
  std::printf("Amdahl table (self time per root item; path = %s)\n",
              phase.amdahl_path.c_str());
  for (const AmdahlRow& row : phase.amdahl) {
    std::printf("  %-52s %12.1f ns %6.1f%%\n", row.layer.c_str(),
                row.ns_per_item,
                total > 0.0 ? 100.0 * row.ns_per_item / total : 0.0);
  }
}

std::string resolved_isa() {
  ripple::blast::simd::register_kernels();
  return ripple::device::to_string(
      ripple::device::KernelRegistry::instance().resolved_level(
          "blast.xdrop_extend"));
}

int usage() {
  std::fprintf(stderr,
               "usage: ripple_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool want_digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scratch" && has_value) {
      options.scratch_dir = argv[++i];
    } else if (arg == "--input-digest") {
      want_digest = true;
    } else {
      return usage();
    }
  }
  const auto found = workloads().find(options.workload);
  if (found == workloads().end() || options.seconds <= 0.0) return usage();
  const Workload& workload = found->second;
  if (want_digest) {
    std::printf("%s\n", workload.input_digest(options.seed).c_str());
    return 0;
  }

  const std::string isa = resolved_isa();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("workload=%s seed=%llu seconds=%g trace=%d nproc=%u isa=%s "
              "build=Release threads=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, nproc, isa.c_str(), workload.threads);

  PhaseResult untraced;
  PhaseResult traced;
  try {
    Options phase = options;
    if (options.trace) phase.seconds = options.seconds / 2.0;
    untraced = workload.run(phase, false);
    if (options.trace) traced = workload.run(phase, true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ripple_perfbench: %s\n", e.what());
    return 1;
  }

  print_metrics("end-to-end (untraced)", untraced.end_to_end);
  print_metrics("diagnostics (untraced)", untraced.layers);
  std::vector<std::string> failures = untraced.failures;
  std::uint64_t attempted = untraced.attempted;
  std::uint64_t failed = untraced.failed;
  if (options.trace) {
    print_metrics("end-to-end (traced)", traced.end_to_end);
    std::printf("tracing overhead (traced - untraced)\n");
    std::map<std::string, Metric> before = untraced.end_to_end;
    std::map<std::string, Metric> after = traced.end_to_end;
    const char* const latencies[] = {"e2e.latency_p50_ms",
                                     "e2e.latency_p99_ms"};
    for (const char* name : latencies) {
      before[name] = untraced.layers[name];
      after[name] = traced.layers[name];
    }
    for (const auto& [name, m] : before) {
      const Metric& t = after[name];
      std::printf("  %-36s %+16.6g %-6s (%+.1f%%)\n", name.c_str(),
                  t.value - m.value, m.unit.c_str(),
                  m.value != 0.0 ? 100.0 * (t.value - m.value) / m.value
                                 : 0.0);
    }
    // The end-to-end latencies reported with the layers are the untraced.
    for (const char* name : latencies) traced.layers[name] = untraced.layers[name];
    print_metrics("per-layer (traced)", traced.layers);
    print_amdahl(traced);
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    attempted += traced.attempted;
    failed += traced.failed;
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::ostringstream line;
  line << "{\"workload\": " << json_string(options.workload)
       << ", \"header\": {\"nproc\": " << nproc
       << ", \"isa\": " << json_string(isa)
       << ", \"build_type\": \"Release\", \"seed\": " << options.seed
       << ", \"threads\": " << workload.threads
       << "}, \"correct\": " << (failures.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"end_to_end\": " << json_metrics(untraced.end_to_end)
       << ", \"traced_end_to_end\": " << json_metrics(traced.end_to_end)
       << ", \"layers\": "
       << json_metrics(options.trace ? traced.layers : untraced.layers)
       << "}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 3;
}
