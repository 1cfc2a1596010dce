// FNV-1a digests of an executor run's complete observable output, shared by
// the chain and DAG golden-digest tests. A digest covers the collected
// results, every NodeMetrics field, the running latency stats and histogram,
// the miss/on-time counts and the makespan; on RIPPLE_OBS builds the tests
// also digest the exported Chrome trace bytes. Engine refactors must replay
// the event loop exactly to keep the recorded values.
#pragma once

#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>

#include "runtime/pipeline_executor.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#endif

namespace ripple::golden {

/// FNV-1a 64 over raw bytes.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t x) { bytes(&x, sizeof x); }
  void f64(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Folds one collected sink result into the digest.
using ResultDigestFn = std::function<void(Digest&, const runtime::Item&)>;

inline void digest_u64_result(Digest& d, const runtime::Item& result) {
  d.u64(std::any_cast<std::uint64_t>(result));
}

inline std::uint64_t execution_digest(
    const runtime::ExecutionMetrics& run,
    const ResultDigestFn& digest_result = digest_u64_result) {
  Digest d;
  for (const runtime::Item& result : run.results) digest_result(d, result);
  const sim::TrialMetrics& base = run.base;
  for (const sim::NodeMetrics& node : base.nodes) {
    d.u64(node.firings);
    d.u64(node.empty_firings);
    d.u64(node.items_consumed);
    d.u64(node.items_produced);
    d.f64(node.active_time);
    d.u64(node.max_queue_length);
  }
  d.u64(base.inputs_arrived);
  d.u64(base.inputs_on_time);
  d.u64(base.inputs_missed);
  d.u64(base.sink_outputs);
  d.u64(base.output_latency.count());
  d.f64(base.output_latency.mean());
  d.f64(base.output_latency.variance());
  d.f64(base.output_latency.min());
  d.f64(base.output_latency.max());
  EXPECT_TRUE(base.latency_histogram.has_value());
  if (base.latency_histogram.has_value()) {
    const dist::Histogram& hist = *base.latency_histogram;
    for (std::size_t b = 0; b < hist.bin_count(); ++b) d.u64(hist.bin(b));
  }
  d.f64(base.makespan);
  d.u64(base.vector_width);
  d.u64(base.events_processed);
  return d.value();
}

#if RIPPLE_OBS
/// Run `traced_run` with recording on, then digest the exported Chrome trace
/// of everything it recorded.
inline std::uint64_t trace_digest(const std::function<void()>& traced_run) {
  auto& session = obs::TraceSession::global();
  session.clear();
  obs::set_enabled(true);
  traced_run();
  obs::set_enabled(false);
  const auto events = session.drain();
  EXPECT_EQ(session.dropped(), 0u);
  EXPECT_GT(events.size(), 0u);
  std::ostringstream out;
  obs::write_chrome_trace(out, events, session);
  session.clear();
  Digest d;
  const std::string bytes = out.str();
  d.bytes(bytes.data(), bytes.size());
  return d.value();
}
#endif

}  // namespace ripple::golden
