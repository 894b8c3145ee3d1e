// E21/E25: broker tier throughput. Two tiers under the same per-node
// service rate R (token bucket, 1 s burst) and the same saturating
// producer load:
//
//   single-aggregator  the one-chain baseline, pinned at R
//   broker             4 partitions on 4 nodes, frame-and-compress-once
//                      produce: the bucket charges compressed bytes on the
//                      wire, so the nodes accept ~compression-ratio more
//                      payload than their uncompressed capacity
//
// The bench measures intake MB/s (uncompressed payload accepted) over the
// load window, allocations per produced entry (alloc_hooks), wire-bytes
// ratio and batch fan-in, drains both tiers through the log mover, and
// checks the delivery-audit identity at quiescence.
//
// The floors. A tier whose bucket charged uncompressed record bytes (the
// record-at-a-time produce path this repository once had, measured at
// 0.261 MB/s on seed 77) can accept at most the uncompressed capacity
//   C = nodes x R x (window + 1 s burst) / window
// over the window. The broker tier must exceed 3 x C, and 6 x the measured
// single-aggregator intake.
//
// A separate light-load phase runs the broker tier below saturation and
// digests the landed warehouse hour: FNV-1a over the sorted (path, bytes)
// of every part. The digest must equal a golden value recorded when the
// record-at-a-time path still existed and landed the same bytes, at every
// seed: the light-load payload stream is fixed, and the seed only feeds
// retry jitter, which never fires below saturation.
//
// Exits nonzero when an audit breaks, the broker fails to drain, an intake
// floor is missed, or the landed bytes differ from the golden digest.

#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "alloc_hooks.h"
#include "bench_common.h"
#include "broker/broker.h"
#include "obs/delivery_audit.h"
#include "obs/metrics.h"
#include "scribe/cluster.h"
#include "sim/simulator.h"

namespace unilog {
namespace {

using bench::kBenchDay;

constexpr uint64_t kServiceBytesPerSec = 64 * 1024;  // R for every tier
constexpr TimeMs kWindow = 120 * kMillisPerSecond;
constexpr int kPayloadBytes = 500;
constexpr int kEntriesPerTick = 220;  // every 100 ms -> ~1.1 MB/s offered
constexpr int kBrokerNodes = 4;

constexpr uint64_t kDefaultSeed = 77;
// Landed-hour digest of the light-load phase (any seed), recorded while the
// batched and record-at-a-time produce paths both existed and landed
// byte-identical parts.
constexpr uint64_t kGoldenLandedDigest = 0x24865a8ef3deee76ull;

enum class Tier { kAggregator, kBroker };

struct TierResult {
  uint64_t intake_bytes = 0;  // uncompressed payload accepted in-window
  double intake_mb_per_sec = 0;
  double consume_mb_per_sec = 0;
  double p99_e2e_ms = 0;
  double allocs_per_entry = 0;
  double wire_bytes_ratio = 0;       // wire bytes / payload bytes acked
  double batch_entries_per_produce = 0;
  scribe::ClusterStats stats;
  obs::DeliverySnapshot audit;
  bool audit_ok = false;
};

scribe::ScribeOptions TierScribeOptions(Tier tier) {
  scribe::ScribeOptions sopts;
  sopts.roll_interval_ms = 30 * kMillisPerSecond;
  sopts.daemon_flush_interval_ms = 500;
  // Saturation keeps every flush near the rate limit; quick retries keep
  // the measurement capacity-bound instead of backoff-bound.
  sopts.daemon_retry_backoff_ms = 100;
  sopts.daemon_retry_backoff_max_ms = 500;
  if (tier == Tier::kAggregator) {
    sopts.daemon_max_batch_bytes = 32 * 1024;
    sopts.aggregator_service_bytes_per_sec = kServiceBytesPerSec;
  } else {
    // The broker ships compressed blobs, so its per-flush payload cap can
    // far exceed the 1 s token burst of uncompressed admission.
    sopts.daemon_max_batch_bytes = 256 * 1024;
  }
  return sopts;
}

scribe::ClusterTopology TierTopology(Tier tier) {
  scribe::ClusterTopology topo;
  topo.datacenters = {"dc1"};
  topo.daemons_per_dc = 8;
  if (tier == Tier::kAggregator) {
    topo.aggregators_per_dc = 1;
  } else {
    topo.brokers_per_dc = kBrokerNodes;
    topo.broker_options.num_partitions = 4;
    topo.broker_options.replication_factor = 1;
    topo.broker_options.acks = broker::kAcksLeader;
    topo.broker_options.node_service_bytes_per_sec = kServiceBytesPerSec;
  }
  return topo;
}

TierResult RunTier(const char* name, Tier tier, uint64_t seed) {
  Simulator sim(kBenchDay);
  scribe::LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;

  scribe::ScribeCluster cluster(&sim, TierTopology(tier),
                                TierScribeOptions(tier), mopts, seed);
  if (!cluster.Start().ok()) std::abort();

  // Four categories spread the (host, category) partition hash over all
  // partitions and broker nodes.
  static const char* kCategories[] = {"clicks", "search", "timeline", "ads"};
  int seq = 0;
  for (TimeMs t = 0; t < kWindow; t += 100) {
    sim.At(kBenchDay + t, [&cluster, &seq]() {
      for (int i = 0; i < kEntriesPerTick; ++i, ++seq) {
        cluster.Log(0, scribe::LogEntry{kCategories[seq % 4],
                                        "e" + std::to_string(seq) +
                                            std::string(kPayloadBytes, 'b')});
      }
    });
  }

  const bool brokered = tier != Tier::kAggregator;
  TierResult result;
  // Snapshot intake at the end of the load window: every tier keeps
  // draining its daemon queues afterwards, which is recovery, not
  // throughput.
  sim.At(kBenchDay + kWindow, [&]() {
    result.intake_bytes =
        brokered ? cluster.fleet(0)->TotalStats().bytes_produced
                 : cluster.aggregator(0, 0)->stats().bytes_received;
  });

  // Drain: past the hour close + grace so the mover slides the hour (and,
  // on the broker path, the consumer group commits every partition).
  bench::AllocScope allocs;
  sim.RunUntil(kBenchDay + kMillisPerHour + 5 * kMillisPerMinute);

  result.stats = cluster.TotalStats();
  obs::DeliveryAudit audit(&cluster);
  result.audit = audit.Snapshot();
  result.audit_ok = audit.Check().ok();
  result.intake_mb_per_sec = static_cast<double>(result.intake_bytes) / 1e6 /
                             (static_cast<double>(kWindow) / 1e3);
  if (brokered) {
    const broker::BrokerFleetStats fs = cluster.fleet(0)->TotalStats();
    result.consume_mb_per_sec = static_cast<double>(fs.bytes_consumed) / 1e6 /
                                (static_cast<double>(kWindow) / 1e3);
    result.p99_e2e_ms = obs::HistogramQuantile(
        *cluster.metrics()->GetHistogram("broker.e2e_latency_ms"), 0.99);
    if (fs.bytes_produced > 0) {
      result.wire_bytes_ratio = static_cast<double>(fs.wire_bytes_produced) /
                                static_cast<double>(fs.bytes_produced);
    }
    if (fs.produce_calls > 0) {
      result.batch_entries_per_produce =
          static_cast<double>(fs.entries_produced) /
          static_cast<double>(fs.produce_calls);
    }
    if (fs.entries_produced > 0) {
      result.allocs_per_entry = static_cast<double>(allocs.Delta()) /
                                static_cast<double>(fs.entries_produced);
    }
  }

  std::printf(
      "%-18s intake=%7.3f MB/s  wire/payload=%5.3f  entries/produce=%6.1f  "
      "allocs/entry=%6.1f  audit=%s\n",
      name, result.intake_mb_per_sec, result.wire_bytes_ratio,
      result.batch_entries_per_produce, result.allocs_per_entry,
      result.audit_ok ? "balanced" : "IMBALANCED");
  return result;
}

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

// Light-load run, well under the broker tier's capacity: every record is
// accepted, and the landed warehouse hour is digested as FNV-1a over each
// part's path, size and bytes in sorted path order.
uint64_t RunLightLoadDigest(uint64_t seed, size_t* parts, bool* audit_ok) {
  Simulator sim(kBenchDay);
  scribe::LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;
  scribe::ScribeCluster cluster(&sim, TierTopology(Tier::kBroker),
                                TierScribeOptions(Tier::kBroker), mopts, seed);
  if (!cluster.Start().ok()) std::abort();

  static const char* kCategories[] = {"clicks", "search", "timeline", "ads"};
  int seq = 0;
  for (TimeMs t = 0; t < 60 * kMillisPerSecond; t += 100) {
    sim.At(kBenchDay + t, [&cluster, &seq]() {
      for (int i = 0; i < 40; ++i, ++seq) {
        cluster.Log(0, scribe::LogEntry{kCategories[seq % 4],
                                        "e" + std::to_string(seq) +
                                            std::string(kPayloadBytes, 'b')});
      }
    });
  }
  sim.RunUntil(kBenchDay + kMillisPerHour + 5 * kMillisPerMinute);

  obs::DeliveryAudit audit(&cluster);
  *audit_ok = audit.Check().ok() && audit.Snapshot().InFlight() == 0;

  std::map<std::string, std::string> files;
  auto listed = cluster.warehouse()->ListRecursive("/logs");
  if (!listed.ok()) std::abort();
  for (const auto& f : *listed) {
    if (f.is_dir) continue;
    auto body = cluster.warehouse()->ReadFile(f.path);
    if (!body.ok()) std::abort();
    files[f.path] = std::move(*body);
  }
  *parts = files.size();
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const auto& [path, body] : files) {
    h = Fnv1a(h, path);
    h = Fnv1a(h, std::string_view("\0", 1));
    h = Fnv1a(h, std::to_string(body.size()));
    h = Fnv1a(h, std::string_view("\0", 1));
    h = Fnv1a(h, body);
  }
  return h;
}

}  // namespace
}  // namespace unilog

int main(int argc, char** argv) {
  using namespace unilog;
  uint64_t seed = bench::ParseSeedFlag(&argc, argv, kDefaultSeed);
  std::printf(
      "=== E25: compressed record batches through the broker tier ===\n"
      "per-node service rate R = %llu KB/s for every tier; offered load "
      "~%d KB/s for %llu s; seed %llu (pass --seed=N)\n\n",
      static_cast<unsigned long long>(kServiceBytesPerSec / 1024),
      kEntriesPerTick * 10 * (kPayloadBytes + 8) / 1024,
      static_cast<unsigned long long>(kWindow / 1000),
      static_cast<unsigned long long>(seed));

  TierResult baseline = RunTier("single-aggregator", Tier::kAggregator, seed);
  TierResult broker = RunTier("broker", Tier::kBroker, seed);

  // Uncompressed capacity of the broker nodes over the window: what any
  // tier charging uncompressed bytes could accept at most.
  const double capacity_mb_per_sec =
      kBrokerNodes * static_cast<double>(kServiceBytesPerSec) *
      static_cast<double>(kWindow + kMillisPerSecond) /
      static_cast<double>(kWindow) / 1e6;
  const double capacity_multiple =
      capacity_mb_per_sec > 0 ? broker.intake_mb_per_sec / capacity_mb_per_sec
                              : 0;
  const double baseline_multiple =
      baseline.intake_mb_per_sec > 0
          ? broker.intake_mb_per_sec / baseline.intake_mb_per_sec
          : 0;
  std::printf(
      "\nbroker consume throughput (drain phase, normalized to the load "
      "window): %.3f MB/s\n",
      broker.consume_mb_per_sec);
  std::printf("broker produce->consume p99 latency: %.0f ms "
              "(hourly move barrier dominates)\n",
              broker.p99_e2e_ms);
  std::printf("uncompressed capacity C = %d nodes x R x (%lld s + 1 s) / "
              "%lld s = %.3f MB/s\n",
              kBrokerNodes, static_cast<long long>(kWindow / 1000),
              static_cast<long long>(kWindow / 1000), capacity_mb_per_sec);
  std::printf("broker intake vs C: %.2fx (target >=3x)\n", capacity_multiple);
  std::printf("broker intake vs single chain: %.2fx (target >=6x)\n",
              baseline_multiple);

  // Below saturation the landed bytes are pinned by the golden digest:
  // how payloads travel may change, what lands may not.
  bool light_audit_ok = false;
  size_t light_parts = 0;
  const uint64_t digest = RunLightLoadDigest(seed, &light_parts,
                                             &light_audit_ok);
  const bool digest_ok = light_parts > 0 && digest == kGoldenLandedDigest;
  std::printf("landed digest (light load, %zu parts): %016llx %s\n",
              light_parts, static_cast<unsigned long long>(digest),
              digest_ok ? "matches golden" : "DIFFERS FROM GOLDEN");

  bool ok = baseline.audit_ok && broker.audit_ok && light_audit_ok &&
            capacity_multiple >= 3.0 && baseline_multiple >= 6.0 &&
            broker.stats.messages_in_warehouse > 0 &&
            broker.audit.in_flight_broker == 0 && digest_ok;
  std::printf(
      "contract (audits balanced, broker drained, >=3x uncompressed "
      "capacity, >=6x single chain, landed digest): %s\n",
      ok ? "MET" : "MISSED");
  if (!ok) {
    std::fprintf(stderr, "CONTRACT VIOLATED — reproduce with --seed=%llu\n",
                 static_cast<unsigned long long>(seed));
  }

  Json section = Json::Object();
  section.Set("service_bytes_per_sec",
              Json::Number(static_cast<double>(kServiceBytesPerSec)));
  section.Set("window_seconds",
              Json::Number(static_cast<double>(kWindow) / 1e3));
  section.Set("baseline_intake_mb_per_sec",
              Json::Number(baseline.intake_mb_per_sec));
  section.Set("broker_batched_intake_mb_per_sec",
              Json::Number(broker.intake_mb_per_sec));
  section.Set("uncompressed_capacity_mb_per_sec",
              Json::Number(capacity_mb_per_sec));
  section.Set("broker_consume_mb_per_sec",
              Json::Number(broker.consume_mb_per_sec));
  section.Set("broker_p99_e2e_ms", Json::Number(broker.p99_e2e_ms));
  section.Set("capacity_multiple", Json::Number(capacity_multiple));
  section.Set("baseline_multiple", Json::Number(baseline_multiple));
  section.Set("wire_bytes_ratio_batched",
              Json::Number(broker.wire_bytes_ratio));
  section.Set("batch_entries_per_produce",
              Json::Number(broker.batch_entries_per_produce));
  section.Set("allocs_per_entry_batched",
              Json::Number(broker.allocs_per_entry));
  section.Set("baseline_audit_balanced", Json::Bool(baseline.audit_ok));
  section.Set("broker_audit_balanced",
              Json::Bool(broker.audit_ok && light_audit_ok));
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  section.Set("landed_digest", Json::Str(digest_hex));
  section.Set("landed_digest_ok", Json::Bool(digest_ok));
  section.Set("contract_met", Json::Bool(ok));
  Status js = bench::MergeBenchJsonSection("BENCH_broker.json",
                                           "broker_throughput", section);
  if (!js.ok()) {
    std::fprintf(stderr, "BENCH_broker.json write failed: %s\n",
                 js.ToString().c_str());
  }
  return ok ? 0 : 1;
}
