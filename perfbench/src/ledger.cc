#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <unordered_map>

#include "exec/executor.h"

namespace perfbench {

namespace exec = unilog::exec;

namespace {

// CPU seconds per kernel run of the latest probes, oldest first, by the
// thread count probed. Probes run from the benchmark's main thread only.
std::deque<double>& RecentProbes(int threads) {
  static std::map<int, std::deque<double>> probes;
  return probes[threads];
}

std::atomic<size_t> probe_sink{0};

void ProbeKernel() {
  std::map<uint32_t, std::string> ordered;
  std::unordered_map<std::string, uint32_t> hashed;
  uint32_t x = 12345;
  for (int i = 0; i < 2500; ++i) {
    x = x * 1103515245u + 12345u;
    std::string key = "event:" + std::to_string(x % 4096);
    ordered[x] = key;
    ++hashed[std::move(key)];
  }
  probe_sink.fetch_add(ordered.size() + hashed.size(),
                       std::memory_order_relaxed);
}

int ProbeThreads(const exec::Executor* exec) {
  return exec != nullptr && exec->parallel() ? exec->threads() : 1;
}

}  // namespace

void HostSpeed::Probe(exec::Executor* exec) {
  const int threads = ProbeThreads(exec);
  const double t0 = CpuSeconds();
  if (threads > 1) {
    exec->ParallelFor(kStage, static_cast<size_t>(threads),
                      [](size_t) { ProbeKernel(); });
  } else {
    ProbeKernel();
  }
  std::deque<double>& probes = RecentProbes(threads);
  probes.push_back((CpuSeconds() - t0) / threads);
  if (probes.size() > kWindow) probes.pop_front();
}

void HostSpeed::ProbeWindow(exec::Executor* exec) {
  for (size_t i = 0; i < kWindow; ++i) Probe(exec);
}

double HostSpeed::Scale(const exec::Executor* exec) {
  const std::deque<double>& probes = RecentProbes(ProbeThreads(exec));
  if (probes.empty()) return 1;
  return kReferenceProbeSeconds /
         Median(std::vector<double>(probes.begin(), probes.end()));
}

void Ledger::Add(const std::string& name, double value,
                 const std::string& unit) {
  MetricValue& m = metrics_[name];
  m.value += value;
  m.unit = unit;
}

void Ledger::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = MetricValue{value, unit};
}

double Ledger::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  size_t index = rank == 0 ? 0 : std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

uint64_t Fnv1a(const std::string& data, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
