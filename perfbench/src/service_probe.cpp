#include "service_probe.hpp"

#include <thread>

namespace perfbench {

void ServiceProbe::digest_outputs(ShardProbe& probe,
                                  const std::vector<runtime::Item>& out,
                                  std::size_t from) const {
  if (!output_key) return;
  for (std::size_t j = from; j < out.size(); ++j) {
    probe.outputs.add(output_key(out[j]));
  }
}

std::vector<runtime::StageFn> ServiceProbe::wrap(
    std::vector<runtime::StageFn> stages, std::size_t shard) {
  ShardProbe* probe = shards.at(shard).get();
  const std::size_t last = stages.size() - 1;
  std::vector<runtime::StageFn> wrapped;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    runtime::StageFn inner = std::move(stages[i]);
    if (!probe->traced) {
      if (i != last) {
        wrapped.push_back(std::move(inner));
        continue;
      }
      wrapped.push_back([this, probe, inner](runtime::Item&& input,
                                             std::vector<runtime::Item>& out) {
        const std::uint64_t root = root_of_sink_input(input);
        const std::size_t before = out.size();
        inner(std::move(input), out);
        record_latency(*probe, root, now_ns());
        digest_outputs(*probe, out, before);
      });
      continue;
    }
    wrapped.push_back([this, probe, inner, i, last](
                          runtime::Item&& input,
                          std::vector<runtime::Item>& out) {
      const std::int64_t start = now_ns();
      if (!probe->have_worker_clock) {
        probe->have_worker_clock =
            pthread_getcpuclockid(pthread_self(), &probe->worker_clock) == 0;
      }
      std::uint64_t root = 0;
      if (i == 0) {
        root = root_of_input(input);
        stage0_ns[root] = start;
        probe->queue_wait_ns.push_back(static_cast<double>(start - due(root)));
      } else if (i == last) {
        root = root_of_sink_input(input);
      }
      const std::size_t before = out.size();
      inner(std::move(input), out);
      const std::int64_t end = now_ns();
      probe->stage_ns[i] += end - start;
      probe->stage_in[i] += 1;
      probe->stage_out[i] += out.size() - before;
      if (i == last) {
        record_latency(*probe, root, end);
        probe->exec_ns.push_back(static_cast<double>(end - stage0_ns[root]));
        digest_outputs(*probe, out, before);
      }
    });
  }
  return wrapped;
}

void CpuWindows::start(std::int64_t t0, std::uint64_t executed) {
  start_ = t0;
  next_ = t0 + 1'000'000'000;
  cpu_ = process_cpu_ns();
  gen_cpu_ = thread_cpu_ns();
  executed_ = executed;
  windows_.clear();
}

void CpuWindows::close(std::int64_t now, std::uint64_t executed) {
  const std::int64_t cpu = process_cpu_ns();
  const std::int64_t gen_cpu = thread_cpu_ns();
  windows_.emplace_back(static_cast<double>((cpu - cpu_) - (gen_cpu - gen_cpu_)),
                        static_cast<double>(executed - executed_));
  cpu_ = cpu;
  gen_cpu_ = gen_cpu;
  executed_ = executed;
  start_ = now;
  next_ = now + 1'000'000'000;
}

void CpuWindows::finish(std::int64_t now, std::uint64_t executed) {
  const bool short_tail = now - start_ < 500'000'000 && !windows_.empty();
  close(now, executed);
  if (short_tail) {
    const auto tail = windows_.back();
    windows_.pop_back();
    windows_.back().first += tail.first;
    windows_.back().second += tail.second;
  }
}

double CpuWindows::steady_ns_per_item() const {
  std::vector<double> per_item;
  for (const auto& [cpu, items] : windows_) {
    if (items > 0.0) per_item.push_back(cpu / items);
  }
  return steady_cost(std::move(per_item));
}

double mean_plan_active_fraction(const service::PipelineService& service) {
  double sum = 0.0;
  for (std::size_t k = 0; k < service.shards(); ++k) {
    sum += service.plan(k)->schedule.predicted_active_fraction;
  }
  return sum / static_cast<double>(service.shards());
}

bool await_drained(const service::PipelineService& service,
                   std::int64_t timeout_ns) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  for (;;) {
    const service::ServiceStats stats = service.stats();
    if (stats.executed_items == stats.accepted) return true;
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace perfbench
