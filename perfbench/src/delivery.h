#ifndef PERFBENCH_DELIVERY_H_
#define PERFBENCH_DELIVERY_H_

// The delivery half of the benchmark: an open-loop run that pushes
// seeded client events through a ScribeCluster on one Simulator, drains it
// to quiescence, and then checks, event by event, what landed in the
// warehouse. Each hour's events are generated by a callback at the hour's
// start and every event is logged at its own generator stamp, whatever the
// host speed — exactly the schedule soak::SoakHarness uses, so with the
// same options the two produce the same fleet run.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/delivery_audit.h"
#include "obs/metrics.h"
#include "soak/chaos.h"
#include "soak/harness.h"
#include "truth.h"

namespace unilog {
class Simulator;
namespace scribe {
class ScribeCluster;
}
namespace hdfs {
class MiniHdfs;
}
namespace exec {
class Executor;
}
}  // namespace unilog

namespace perfbench {

class Ledger;

/// What one drained delivery run produced.
struct DeliveryOutcome {
  uint64_t events_logged = 0;
  uint64_t chaos_events = 0;
  unilog::obs::DeliverySnapshot audit;
  /// Events whose landed count at quiescence is not exactly one.
  uint64_t failed_events = 0;
  /// Failed checks, one line each (empty when the run is correct).
  std::vector<std::string> errors;
  /// Sim ms from each landed event's Log() to its hour partition's slide
  /// into /logs, one entry per landed row.
  std::vector<double> freshness_ms;
  /// Events landed per reference-host second (see HostSpeed) of the run
  /// phase: the window and the drain, generator time excluded.
  double events_per_s = 0;
};

/// Events the audit counts in a loss channel (dropped or lost).
uint64_t LostEvents(const unilog::obs::DeliverySnapshot& audit);

/// Shape of a delivery run: the fleet and workload (SoakOptions carries
/// both), the broker-tier settings, and whether chaos is injected.
struct DeliveryConfig {
  unilog::soak::SoakOptions soak;
  unilog::broker::BrokerOptions broker;
  bool chaos = false;
  /// Window each hour's generator shard draws session starts from. One
  /// hour is what soak::SoakHarness uses; the generator keeps sessions an
  /// hour clear of the window's end, so every session then starts at the
  /// shard's first instant. Two hours spreads session starts over the hour.
  unilog::TimeMs shard_window_ms = unilog::kMillisPerHour;
};

/// One delivery run. Setup() builds the fleet and registers the whole
/// schedule; Run() executes the window and the drain; Verify() checks the
/// landed warehouse. The object must stay put between the calls (the
/// simulator callbacks point into it).
class DeliveryRun {
 public:
  DeliveryRun(DeliveryConfig config, Ledger* ledger);
  ~DeliveryRun();
  DeliveryRun(const DeliveryRun&) = delete;
  DeliveryRun& operator=(const DeliveryRun&) = delete;

  unilog::Status Setup();
  unilog::Status Run();
  /// Checks quiescence, that every loss channel is zero, and that every
  /// logged event landed exactly once.
  DeliveryOutcome Verify();

  unilog::hdfs::MiniHdfs* warehouse();
  const unilog::obs::MetricsRegistry& metrics() const;
  /// What Verify() read back: the generated users and funnel, with event
  /// and name counts keyed by the hour partition each row landed in.
  const WarehouseTruth& landed() const { return landed_; }

 private:
  struct CorruptState;

  void GenerateHour(int hour_index, uint64_t shard_seed);
  void ScheduleChaos(const unilog::scribe::ClusterTopology& topo);
  void TryCorruptPart(int retries_left);
  void Sample();
  /// Ends a timed window of the run: probes the host speed and adds the
  /// window's scaled CPU time to run_reference_s_.
  void CloseWindow();
  void RecordLayerCounters();

  DeliveryConfig config_;
  const unilog::soak::SoakOptions& options_ = config_.soak;
  Ledger* ledger_;

  std::unique_ptr<unilog::Simulator> sim_;
  std::unique_ptr<unilog::scribe::ScribeCluster> cluster_;
  std::unique_ptr<CorruptState> corrupt_;
  unilog::TimeMs end_ = 0;
  unilog::TimeMs drained_ = 0;
  uint64_t chaos_events_ = 0;
  unilog::Status workload_status_;

  WarehouseTruth truth_;
  WarehouseTruth landed_;
  /// Identity key of every logged event (see EventKey).
  std::vector<uint64_t> logged_keys_;

  /// Reference-host seconds of Run(), generator and probes excluded; the
  /// CPU and generator clocks at the start of the open window.
  double run_reference_s_ = 0;
  double window_cpu0_ = 0;
  double window_generate0_ = 0;
  double generate_cpu_s_ = 0;
  /// CPU time and allocations of the benchmark's own simulator callbacks
  /// (generation, traced Log() wrappers, scrubs, probes), excluded from
  /// sim.run_ms.
  double own_callbacks_cpu_s_ = 0;
  uint64_t own_callback_allocs_ = 0;
  /// Traced Log() calls: CPU time and allocations inside them.
  double log_cpu_s_ = 0;
  uint64_t log_allocs_ = 0;
  int64_t queue_peak_ = 0;
  int64_t retained_peak_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DELIVERY_H_
