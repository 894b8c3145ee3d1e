#ifndef UNILOG_SOAK_HARNESS_H_
#define UNILOG_SOAK_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "obs/delivery_audit.h"
#include "scribe/aggregator.h"
#include "scribe/cluster.h"
#include "scribe/log_mover.h"
#include "soak/chaos.h"
#include "soak/slo.h"

namespace unilog::soak {

/// Shape and duration of a soak run. The defaults are the full fleet-scale
/// configuration (two datacenters — one on the aggregator chain, one on
/// the broker tier — 1200 daemons, sharded staging and warehouse HDFS,
/// a two-day window); tests and the CI smoke job scale the same knobs
/// down rather than running a different code path.
struct SoakOptions {
  uint64_t seed = 42;
  /// Simulated duration in hours.
  int hours = 48;

  std::vector<std::string> datacenters = {"east", "west"};
  /// DCs running the broker tier; the rest keep aggregator chains. The
  /// default mixed fleet lets one run chaos both delivery paths.
  std::vector<std::string> broker_datacenters = {"west"};
  int daemons_per_dc = 600;
  int aggregators_per_dc = 4;
  int brokers_per_dc = 5;

  int staging_datanodes = 6;
  int staging_replication = 2;
  int warehouse_datanodes = 8;
  int warehouse_replication = 3;

  /// Workload: one generator shard per simulated hour, each with its own
  /// derived seed and a disjoint user-id range.
  int users_per_hour = 25000;
  double sessions_per_user_mean = 0.4;
  double events_per_session_mean = 8.0;
  std::string category = "client_event";
  TimeMs start = MakeDate(2012, 8, 20);

  ChaosScheduleOptions chaos;
  SloThresholds slo;
  /// Delivery-path tuning. The only soak-specific default is a 2s daemon
  /// flush (vs. the stock 1s). The fleet's daemons share one flush grid
  /// (one simulator event per instant however many daemons), so the
  /// interval no longer sets the event count. It sets the flush instants,
  /// and so how many entries each flush batches and when they land.
  scribe::ScribeOptions scribe = [] {
    scribe::ScribeOptions s;
    s.daemon_flush_interval_ms = 2 * kMillisPerSecond;
    return s;
  }();
  scribe::LogMoverOptions mover;

  /// Post-window drain before quiescence is asserted; must cover the
  /// longest chaos outage plus one hour-close-and-slide cycle.
  TimeMs drain_ms = 4 * kMillisPerHour;
  /// Background columnar scrub cadence (the block-scanner analog).
  TimeMs scrub_interval_ms = 2 * kMillisPerHour;
  /// SLO peak-sampling cadence.
  TimeMs sample_interval_ms = 15 * kMillisPerMinute;
  /// Hours covered by the post-drain Oink cold+warm pass; 0 skips it.
  int oink_hours = 4;

  /// Fault-injection self-test: silently delete one staged file mid-run,
  /// bypassing all accounting. A correct harness MUST fail such a run at
  /// quiescence (in_flight_staging can never drain) — this is how the
  /// soak proves it can detect unrecovered loss at all.
  bool inject_unrecovered_loss = false;
};

/// Everything a soak run produced, reproducible from `seed`.
struct SoakResult {
  uint64_t seed = 0;
  int hours = 0;
  uint64_t daemons = 0;
  uint64_t events_logged = 0;
  uint64_t chaos_events = 0;
  std::map<std::string, uint64_t> chaos_by_kind;
  uint64_t parts_corrupted = 0;
  uint64_t parts_quarantined = 0;
  double oink_warm_hit_rate = -1;
  scribe::ClusterStats stats;
  obs::DeliverySnapshot audit;
  SloReport slo;
  /// True only when every SLO held AND the audit was quiescent.
  bool passed = false;

  std::string ToString() const;
  Json ToJson() const;
};

/// The fleet-scale soak/chaos driver: builds a mixed-tier ScribeCluster on
/// one deterministic Simulator, streams per-hour workload shards through
/// it, applies a ChaosSchedule generated from the same seed, scrubs the
/// warehouse periodically, drains, asserts quiescence, runs the Oink
/// cold+warm pass, and scores the run against the SLO thresholds. The
/// same options (seed included) always reproduce the identical run,
/// violations and all.
class SoakHarness {
 public:
  explicit SoakHarness(SoakOptions options) : options_(std::move(options)) {}

  Result<SoakResult> Run();

 private:
  SoakOptions options_;
};

}  // namespace unilog::soak

#endif  // UNILOG_SOAK_HARNESS_H_
