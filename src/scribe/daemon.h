#ifndef UNILOG_SCRIBE_DAEMON_H_
#define UNILOG_SCRIBE_DAEMON_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/fleet.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "scribe/aggregator.h"
#include "scribe/message.h"
#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::scribe {

/// Per-daemon delivery metrics, materialized from the metrics registry.
struct DaemonStats {
  uint64_t entries_logged = 0;
  uint64_t entries_sent = 0;
  uint64_t entries_dropped = 0;  // buffer-limit overflow
  uint64_t send_failures = 0;
  uint64_t rediscoveries = 0;
  uint64_t produce_throttled = 0;  // broker backpressure pushbacks
};

/// A Scribe daemon: runs on every production host, queues local log
/// entries, and ships them to an aggregator in the same datacenter. The
/// aggregator is discovered through ZooKeeper's ephemeral registry; on a
/// failed send the daemon buffers locally (bounded), re-consults
/// ZooKeeper, and retries — the §2 fault-tolerance story.
///
/// All delivery counters live in an obs::MetricsRegistry under
/// `daemon.*{dc=...,host=...}`; when no registry is supplied the daemon
/// owns a private one so standalone construction keeps working.
class ScribeDaemon {
 public:
  /// `resolve` maps an aggregator registry entry (znode name) to the
  /// Aggregator object — the simulation's stand-in for opening a network
  /// connection to the advertised host:port.
  using Resolver = std::function<Aggregator*(const std::string& name)>;

  ScribeDaemon(Simulator* sim, zk::ZooKeeper* zk, std::string datacenter,
               std::string host, Resolver resolve, Rng rng,
               ScribeOptions options,
               obs::MetricsRegistry* metrics = nullptr);

  ScribeDaemon(const ScribeDaemon&) = delete;
  ScribeDaemon& operator=(const ScribeDaemon&) = delete;

  /// Switches the daemon into broker-producer mode: Flush() partitions the
  /// queue by category and produces to partition leaders with per-daemon
  /// sequence numbers (idempotent delivery) instead of shipping whole
  /// batches to an aggregator. Call before Start().
  void SetBrokerFleet(broker::BrokerFleet* fleet) { fleet_ = fleet; }

  /// Starts the periodic flush: subscribes the daemon to the simulator's
  /// shared flush grid for (Now(), daemon_flush_interval_ms), so it
  /// flushes at Now() + k·interval like a timer of its own, and daemons
  /// started at the same instant flush in Start() order. An idle daemon
  /// costs no simulator event; its grid keeps one per instant. Entries
  /// logged before Start() go out at the first grid instant.
  void Start();

  /// Queues one log entry (the application-facing API).
  void Log(LogEntry entry);
  void Log(const std::string& category, std::string message);

  /// Flushes queued entries to the current destination now; on failure,
  /// re-discovers and leaves entries queued. Normally timer-driven.
  void Flush();

  /// Entries queued but not yet acknowledged downstream.
  size_t QueuedEntries() const { return queue_.size(); }

  DaemonStats stats() const;
  const std::string& host() const { return host_; }

 private:
  /// A queued entry plus the per-daemon sequence number assigned at Log()
  /// time. Sequence numbers travel with every send so downstream dedup can
  /// make crash-retry idempotent.
  struct Queued {
    LogEntry entry;
    uint64_t seq = 0;
    TimeMs logged_at = 0;
  };

  /// Picks a live aggregator from ZooKeeper; nullptr when none registered.
  Aggregator* Discover();
  bool FlushToAggregator();
  bool FlushToBroker();
  /// Batched produce for one category run: frames the queued entries into
  /// a pooled body buffer, compresses the body ONCE with the pooled Lz
  /// state, and ships the blob via ProduceBatch. The compression done here
  /// is the only compression the payload sees until warehouse landing.
  Status ProduceCategoryBatch(broker::BrokerNode* leader,
                              const std::string& category, int partition,
                              const std::vector<size_t>& indices,
                              std::vector<size_t>* taken,
                              broker::ProduceAck* ack);
  broker::BrokerNode* DiscoverLeader(const std::string& category,
                                     int partition);
  /// Capped exponential backoff with deterministic (Rng-seeded) jitter:
  /// doubles per consecutive failed flush up to daemon_retry_backoff_max_ms,
  /// jittered into [1/2, 1]× so an outage does not synchronize the whole
  /// daemon herd onto one zk rediscovery tick.
  void EnterBackoff();

  Simulator* sim_;
  zk::ZooKeeper* zk_;
  std::string datacenter_;
  std::string host_;
  Resolver resolve_;
  Rng rng_;
  ScribeOptions options_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* entries_logged_;
  obs::Counter* entries_sent_;
  obs::Counter* entries_dropped_;
  obs::Counter* send_failures_;
  obs::Counter* rediscoveries_;
  obs::Counter* produce_throttled_;
  obs::Gauge* queue_depth_;
  obs::Histogram* batch_entries_;

  Aggregator* current_ = nullptr;
  broker::BrokerFleet* fleet_ = nullptr;
  // Cached partition leader per category; invalidated on rejection/death.
  std::map<std::string, broker::BrokerNode*> leader_cache_;
  // Send batch assembled from queue_ each flush; member so its capacity is
  // reused across flushes.
  std::vector<LogEntry> batch_;
  // Pooled body buffers for batched broker produce: the framed body is
  // assembled in a lease, compressed once, and the lease returns its grown
  // capacity for the next flush.
  BufferPool pool_;
  std::deque<Queued> queue_;
  uint64_t queue_bytes_ = 0;
  // Per-category sequence counters: each (host, category) stream gets
  // dense seqs, which is what lets a produce batch carry its idempotence
  // metadata as just (first_seq, count). All of a category's entries
  // route to one partition, so density survives partitioning; drop-oldest
  // and ack-removal both erase per-category prefixes, preserving it in
  // the queue too.
  std::map<std::string, uint64_t> next_seq_;
  TimeMs backoff_until_ = 0;
  int fail_streak_ = 0;
  // Last member, so it unsubscribes before the state its callback uses
  // goes away.
  Simulator::GridSubscription flush_timer_;
};

}  // namespace unilog::scribe

#endif  // UNILOG_SCRIBE_DAEMON_H_
