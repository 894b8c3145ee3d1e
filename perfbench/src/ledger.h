#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// Host-clock timers, allocation counts and the named metric set a run
// reports. The ledger is the benchmark's own tracing: spans are recorded
// around the calls the benchmark makes into each layer, never inside the
// library. A disabled ledger records nothing, so untraced runs pay only
// the clock reads the end-to-end metrics need.
//
// Times are process CPU time (CpuSeconds): the simulator runs on one thread
// and the query engines on a fixed executor whose idle workers block, so
// CPU time counts the work done and not the time spent waiting for a core.
// On a shared host the CPU time of fixed work still drifts by tens of
// percent as neighbours load the same cores and caches, so end-to-end times
// are also scaled to a reference host speed (HostSpeed below). The wall
// clock (HostSeconds) only paces a run against --seconds.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace unilog::exec {
class Executor;
}

namespace perfbench {

/// Total operator-new calls since process start (bench/alloc_hooks.h).
uint64_t AllocCount();

/// Seconds on the host steady (wall) clock.
inline double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds the process has used, summed over all its threads.
inline double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host-speed calibration. Probe() times a fixed kernel — ordered and
/// hashed std containers, short strings and their allocations, the mix of
/// the program's hot paths — on the threads the timed work runs on: once
/// on the calling thread, or once per thread of a parallel executor,
/// through the executor's own dispatch. Scale() converts CPU seconds of
/// work done around the latest probes into reference-host seconds:
/// kReferenceProbeSeconds over the median per-kernel CPU time of the last
/// kWindow probes on the same threads. A host running the kernel in
/// exactly the reference time reports plain CPU time. The kernel does not
/// touch the program under test, so a change to the program moves scaled
/// times exactly as it moves CPU times.
class HostSpeed {
 public:
  static constexpr double kReferenceProbeSeconds = 1e-3;
  static constexpr size_t kWindow = 9;
  /// Executor stage name of the probe's tasks.
  static constexpr const char* kStage = "host_speed_probe";

  /// Runs the kernel and records its mean CPU seconds per run.
  static void Probe(unilog::exec::Executor* exec = nullptr);
  /// kWindow probes in a row, to seed the window before a timed phase.
  static void ProbeWindow(unilog::exec::Executor* exec = nullptr);
  /// Reference seconds per CPU second, around the latest probes.
  static double Scale(const unilog::exec::Executor* exec = nullptr);
};

/// Reference-host seconds of `fn()`, which runs on the calling thread or
/// on `exec`: its CPU seconds times the host-speed scale over the probes
/// around it. A short item is followed by one probe and scaled by the
/// window of recent probes; a long one, which spans many probe periods, by
/// five probes right after it and the four right before it.
template <typename Fn>
double ReferenceSeconds(Fn&& fn, unilog::exec::Executor* exec = nullptr) {
  const double t0 = CpuSeconds();
  fn();
  const double cpu = CpuSeconds() - t0;
  const int probes = cpu > 0.05 ? static_cast<int>(HostSpeed::kWindow / 2 + 1)
                                : 1;
  for (int i = 0; i < probes; ++i) HostSpeed::Probe(exec);
  return cpu * HostSpeed::Scale(exec);
}

struct MetricValue {
  double value = 0;
  std::string unit;
};

/// A named set of metrics with units. Add() accumulates, Set() replaces.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void Add(const std::string& name, double value, const std::string& unit);
  void Set(const std::string& name, double value, const std::string& unit);
  /// Current value, or 0 when absent.
  double Get(const std::string& name) const;

  const std::map<std::string, MetricValue>& metrics() const {
    return metrics_;
  }

 private:
  bool enabled_;
  std::map<std::string, MetricValue> metrics_;
};

/// Adds the CPU milliseconds of its scope to `name` when the ledger is
/// enabled; a no-op otherwise.
class Span {
 public:
  Span(Ledger* ledger, const char* name)
      : ledger_(ledger->enabled() ? ledger : nullptr),
        name_(name),
        start_(ledger_ != nullptr ? CpuSeconds() : 0) {}
  ~Span() {
    if (ledger_ != nullptr) {
      ledger_->Add(name_, (CpuSeconds() - start_) * 1e3, "ms");
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger* ledger_;
  const char* name_;
  double start_;
};

/// Exact order statistic: the smallest sample with at least a `q` share of
/// the samples at or below it (nearest rank). 0 for no samples.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// 64-bit FNV-1a, for answer digests and per-event identity keys.
uint64_t Fnv1a(const std::string& data, uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
