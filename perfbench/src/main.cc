// perfbench: the repository benchmark. One process runs one workload (or
// all three) end to end through the public API — Scribe delivery into the
// hourly warehouse, then Oink/Pig/MapReduce analytics over it — checks every
// output, and prints its metrics.
//
//   perfbench --workload soak|ingest|analytics|all --seed N --seconds S
//             --trace 0|1 [--state-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same work
// once untraced and once traced and reports the per-layer ledger plus the
// tracing overhead. The last line on stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Progress goes to stderr. The exit code is 1 when any check failed.
//
// With --state-dir, the sim-time outcome and answer digests of each
// (workload, seed) are kept there, and a later run of the same seed whose
// digests differ fails.

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analytics.h"
#include "common/compress.h"
#include "delivery.h"
#include "exec/executor.h"
#include "ledger.h"

namespace perfbench {
namespace {

using namespace unilog;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir;
};

// A workload: the delivery run, optional pre-landed history, and the
// analytics plan run over everything that landed.
struct Workload {
  std::string name;
  DeliveryConfig delivery;
  int history_days = 0;
  int history_users_per_day = 0;
  /// Whether the ad-hoc query mix fills the rest of --seconds (analytics)
  /// or whole passes repeat while they fit (delivery workloads).
  bool fill_with_queries = false;
  /// Set-ups timed per run (extra fleets are built and discarded).
  int setup_samples = 9;
  AnalyticsPlan plan;
};

// The ROADMAP baseline fleet: the CI short-soak shape — two DCs (east on
// the aggregator chain, west on the broker tier), 200 daemons each, six
// simulated hours under the seeded chaos schedule. Session starts spread
// over each hour. The schedule keeps the faults the fleet survives without
// losing an event — zk expiry storms, staging and warehouse brownouts, and
// broker crashes with acks from every replica — and drops those that lose
// or misplace events by design: aggregator crashes (buffered entries),
// clock skew (events moved to another hour) and corrupt parts (quarantined
// rows).
Workload Soak(uint64_t seed) {
  Workload w;
  w.name = "soak";
  soak::SoakOptions& o = w.delivery.soak;
  o.seed = seed;
  o.hours = 6;
  o.daemons_per_dc = 200;
  o.chaos.aggregator_crashes_per_day = 0;
  o.chaos.clock_skews_per_day = 0;
  o.chaos.corrupt_parts_per_day = 0;
  w.delivery.broker.acks = broker::kAcksAll;
  w.delivery.chaos = true;
  w.delivery.shard_window_ms = 2 * kMillisPerHour;
  w.plan.min_queries = 600;
  w.plan.mix = QueryMix{0, 0, 0};
  return w;
}

// One broker-tier DC with a few heavily loaded daemons and no chaos: every
// flush ships a large batch, so Lz, broker produce/replicate/fetch, mover
// decode and RCFile encode dominate. Offered load stays far below the
// per-node service rate, so the backlog is bounded.
Workload Ingest(uint64_t seed) {
  Workload w;
  w.name = "ingest";
  soak::SoakOptions& o = w.delivery.soak;
  o.seed = seed;
  o.hours = 4;
  o.datacenters = {"east"};
  o.broker_datacenters = {"east"};
  o.daemons_per_dc = 2;
  o.brokers_per_dc = 3;
  o.users_per_hour = 20000;
  o.scribe.daemon_flush_interval_ms = 10 * kMillisPerSecond;
  o.drain_ms = 2 * kMillisPerHour;
  w.delivery.broker.num_partitions = 6;
  w.delivery.broker.replication_factor = 2;
  w.delivery.broker.node_service_bytes_per_sec = 4ull * 1024 * 1024;
  w.delivery.shard_window_ms = 2 * kMillisPerHour;
  w.plan.min_queries = 600;
  w.plan.mix = QueryMix{0, 0, 0};
  return w;
}

// A multi-day warehouse landed at set-up in the mover's RCFile v2 hourly
// layout, six live hours delivered through a small broker-tier DC, then one
// client running the daily jobs, the recurring workflows and the ad-hoc mix.
Workload Analytics(uint64_t seed) {
  Workload w;
  w.name = "analytics";
  soak::SoakOptions& o = w.delivery.soak;
  o.seed = seed;
  o.hours = 6;
  o.datacenters = {"east"};
  o.broker_datacenters = {"east"};
  o.daemons_per_dc = 4;
  o.brokers_per_dc = 3;
  o.users_per_hour = 12000;
  o.start = MakeDate(2012, 8, 23);
  o.drain_ms = 2 * kMillisPerHour;
  // No background scrub while the live hours run: it would re-verify the
  // whole landed history every pass and swamp the delivery windows.
  o.scrub_interval_ms = kMillisPerDay;
  w.delivery.broker.num_partitions = 6;
  w.delivery.shard_window_ms = 2 * kMillisPerHour;
  w.history_days = 3;
  w.history_users_per_day = 2500;
  w.fill_with_queries = true;
  w.setup_samples = 3;
  w.plan.min_queries = 1000;
  // The live hours are ~13x the size of a history hour; the ad-hoc mix
  // stays on the history so its tail measures the query engines, not how
  // often a draw lands on a live hour.
  w.plan.query_hours_before = o.start;
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  if (name == "soak") {
    *out = Soak(seed);
  } else if (name == "ingest") {
    *out = Ingest(seed);
  } else if (name == "analytics") {
    *out = Analytics(seed);
  } else {
    return false;
  }
  out->delivery.soak.category = "client_events";
  out->plan.category = out->delivery.soak.category;
  out->plan.seed = seed;
  return true;
}

// Returns freed heap to the kernel and restarts the kernel's peak-RSS mark
// (VmHWM) from the current resident set, so the next PeakRssMb() is the
// peak of what runs in between, not of earlier workloads or passes.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// Peak resident set size since the last ResetPeakRss(), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Builds the fleet and, for workloads with history, lands it.
Status Setup(const Workload& w, DeliveryRun* delivery,
             WarehouseTruth* history) {
  UNILOG_RETURN_NOT_OK(delivery->Setup());
  if (w.history_days == 0) return Status::OK();
  const soak::SoakOptions& o = w.delivery.soak;
  return LandHistory(delivery->warehouse(), o.category,
                     o.start - w.history_days * kMillisPerDay, w.history_days,
                     w.history_users_per_day, o.seed, history);
}

// One pass: set up, deliver, verify, then run the analytics plan.
struct Pass {
  /// Reference-host seconds of set-up, CPU seconds of the rest of the
  /// pass, wall seconds of the whole pass.
  double setup_s = 0;
  double run_s = 0;
  double wall_s = 0;
  double events_per_s = 0;
  std::vector<double> freshness_ms;
  AnalyticsOutcome analytics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  uint64_t sim_digest = 0;
  std::string audit;
  double peak_rss_mb = 0;
};

Pass RunPass(const Workload& w, double run_seconds, exec::Executor* exec,
             Ledger* ledger) {
  Pass p;
  const uint64_t lz_compress0 = Lz::CompressCallCount();
  const uint64_t lz_decompress0 = Lz::DecompressCallCount();
  ResetPeakRss();
  const double wall0 = HostSeconds();
  DeliveryRun delivery(w.delivery, ledger);
  WarehouseTruth history;
  Status st;
  p.setup_s =
      ReferenceSeconds([&] { st = Setup(w, &delivery, &history); });
  const double t1 = CpuSeconds();
  const double wall1 = HostSeconds();
  if (!st.ok()) {
    p.errors.push_back("setup: " + st.ToString());
    p.failed = p.attempted = 1;
    return p;
  }
  const obs::MetricsRegistry& m = delivery.metrics();
  const uint64_t hdfs_written0 = m.CounterTotal("hdfs.bytes_written");
  const uint64_t hdfs_read0 = m.CounterTotal("hdfs.bytes_read");

  st = delivery.Run();
  if (!st.ok()) p.errors.push_back("run: " + st.ToString());
  const double t_run = HostSeconds();
  DeliveryOutcome d = delivery.Verify();
  std::fprintf(stderr,
               "  %s: setup %.3f s ref, delivery %.2f s, verify %.2f s, "
               "host speed scale %.3f\n",
               w.name.c_str(), p.setup_s, t_run - wall1,
               HostSeconds() - t_run, HostSpeed::Scale());
  // Delivery workloads report the fleet's footprint, before the read-side
  // pass over what landed adds its own.
  if (!w.fill_with_queries) p.peak_rss_mb = PeakRssMb();
  p.events_per_s = d.events_per_s;
  p.attempted += d.events_logged;
  p.failed += d.failed_events;
  for (auto& e : d.errors) p.errors.push_back(std::move(e));
  p.freshness_ms = std::move(d.freshness_ms);

  p.audit = d.audit.ToString();
  std::string sim_state = p.audit + "|" +
                          std::to_string(d.events_logged) + "|" +
                          std::to_string(d.chaos_events);
  uint64_t sim_digest = Fnv1a(sim_state);
  for (double f : p.freshness_ms) {
    sim_digest = Fnv1a(std::to_string(static_cast<int64_t>(f)), sim_digest);
  }
  p.sim_digest = sim_digest;

  WarehouseTruth truth = history;
  truth.Merge(delivery.landed());
  AnalyticsPlan plan = w.plan;
  // The analytics run phase lasts `run_seconds`: queries fill what the
  // delivery, the daily jobs and the ticks leave of it.
  if (w.fill_with_queries) plan.query_deadline = wall1 + run_seconds;
  p.analytics = RunAnalytics(delivery.warehouse(), truth, plan, exec, ledger);
  p.attempted += p.analytics.attempted;
  p.failed += p.analytics.failed;
  for (const auto& e : p.analytics.errors) p.errors.push_back(e);
  p.run_s = CpuSeconds() - t1;
  p.wall_s = HostSeconds() - wall0;
  if (w.fill_with_queries) p.peak_rss_mb = PeakRssMb();

  if (ledger->enabled()) {
    ledger->Set("hdfs.bytes_written",
                static_cast<double>(m.CounterTotal("hdfs.bytes_written") -
                                    hdfs_written0),
                "bytes");
    ledger->Set(
        "hdfs.bytes_read",
        static_cast<double>(m.CounterTotal("hdfs.bytes_read") - hdfs_read0),
        "bytes");
    ledger->Set("common.lz.compress_calls",
                static_cast<double>(Lz::CompressCallCount() - lz_compress0),
                "count");
    ledger->Set("common.lz.decompress_calls",
                static_cast<double>(Lz::DecompressCallCount() - lz_decompress0),
                "count");
    const double logged = ledger->Get("workload.events");
    ledger->Set("scribe.log_allocs_per_call",
                logged > 0 ? ledger->Get("scribe.log_allocs") / logged : 0,
                "count");
  }
  return p;
}

// Per-layer metrics a traced run reports, with their units; a layer the
// workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"workload.generate_ms", "ms"},
      {"workload.events", "count"},
      {"events.serialize_ms", "ms"},
      {"events.serialized_bytes", "bytes"},
      {"scribe.log_ms", "ms"},
      {"scribe.log_allocs_per_call", "count"},
      {"scribe.daemon.batches", "count"},
      {"scribe.daemon.entries_per_batch", "count"},
      {"scribe.daemon.send_failures", "count"},
      {"scribe.daemon.produce_throttled", "count"},
      {"scribe.daemon.queue_peak", "count"},
      {"scribe.agg.files_written", "count"},
      {"scribe.agg.bytes_written", "bytes"},
      {"scribe.pool_hit_ratio", "ratio"},
      {"scribe.mover.drain_ms", "ms"},
      {"scribe.mover.hours_moved", "count"},
      {"scribe.mover.broker_batches_decoded", "count"},
      {"scribe.mover.columnar_files_written", "count"},
      {"scribe.mover.move_retries", "count"},
      {"scribe.mover.barrier_stalls", "count"},
      {"sim.run_ms", "ms"},
      {"sim.events", "count"},
      {"sim.events_per_logged_event", "ratio"},
      {"sim.ns_per_event", "ns"},
      {"sim.allocs_per_event", "count"},
      {"common.lz.compress_calls", "count"},
      {"common.lz.decompress_calls", "count"},
      {"broker.produce_calls", "count"},
      {"broker.wire_ratio", "ratio"},
      {"broker.replication_rounds", "count"},
      {"broker.bytes_consumed", "bytes"},
      {"broker.dup_ratio", "ratio"},
      {"broker.throttled", "count"},
      {"broker.elections", "count"},
      {"broker.retained_bytes_peak", "bytes"},
      {"zk.watch_fires", "count"},
      {"zk.sessions_opened", "count"},
      {"hdfs.bytes_written", "bytes"},
      {"hdfs.bytes_read", "bytes"},
      {"hdfs.rejections", "count"},
      {"columnar.scrub_ms", "ms"},
      {"columnar.open_ms", "ms"},
      {"columnar.scan_ms", "ms"},
      {"columnar.bytes_decompressed", "bytes"},
      {"columnar.groups_skipped_ratio", "ratio"},
      {"columnar.rows_returned", "count"},
      {"dataflow.vector_ms", "ms"},
      {"dataflow.vector_rows_per_s", "1/s"},
      {"dataflow.vector_allocs_per_row", "count"},
      {"dataflow.dict_domain_rows_pruned", "count"},
      {"dataflow.pig_ms", "ms"},
      {"dataflow.mapreduce_ms", "ms"},
      {"dataflow.mapreduce_map_tasks", "count"},
      {"dataflow.mapreduce_bytes_shuffled", "bytes"},
      {"exec.morsel_steals", "count"},
      {"exec.tasks", "count"},
      {"pipeline.daily_ms", "ms"},
      {"sessions.sequences", "count"},
      {"sessions.sequence_bytes", "bytes"},
      {"oink.tick_ms", "ms"},
      {"oink.cache_hit_ratio", "ratio"},
      {"oink.scan_bytes_decompressed", "bytes"},
      {"oink.shared_scan_fanout", "count"},
      {"oink.stats_cache_misses", "count"},
      {"obs.audit_ms", "ms"},
      {"trace.untraced_s", "s"},
      {"trace.traced_s", "s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, MetricValue>> metrics;
};

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Compares this run's digests with those stored for the same seed, or
// stores them when this is the seed's first correct run.
bool CheckStoredDigests(const Args& args, const std::string& workload,
                        const std::string& digests, std::string* error) {
  if (args.state_dir.empty()) return true;
  std::error_code ec;
  std::filesystem::create_directories(args.state_dir, ec);
  const std::string path = args.state_dir + "/" + workload + "-" +
                           std::to_string(args.seed) + ".digest";
  std::ifstream in(path);
  if (in) {
    std::stringstream stored;
    stored << in.rdbuf();
    if (stored.str() != digests) {
      *error = "digests differ from an earlier run of seed " +
               std::to_string(args.seed) + ": " + stored.str() + " vs " +
               digests;
      return false;
    }
    return true;
  }
  std::ofstream(path) << digests;
  return true;
}

Report RunWorkload(const Args& args, const std::string& name,
                   exec::Executor* exec) {
  Report r;
  Workload w;
  MakeWorkload(name, args.seed, &w);
  std::vector<Pass> passes;
  std::vector<double> setup_samples;
  Ledger untraced(false);
  Ledger traced(true);
  const double start = HostSeconds();

  if (args.trace) {
    // The same fixed work twice, traced first: the first pass also pays
    // the process's warm-up, so the overhead reported is an upper bound.
    passes.push_back(RunPass(w, 0, exec, &traced));
    passes.push_back(RunPass(w, 0, exec, &untraced));
  } else {
    // Delivery workloads repeat whole passes while another one fits in
    // --seconds; analytics fills the budget with the closed-loop query mix.
    while (true) {
      passes.push_back(RunPass(w, args.seconds, exec, &untraced));
      const double elapsed = HostSeconds() - start;
      const double next = passes.back().wall_s;
      if (w.fill_with_queries || elapsed + next > args.seconds) break;
    }
  }
  for (const Pass& p : passes) setup_samples.push_back(p.setup_s);
  // Set-up is reported as a median of several samples.
  while (static_cast<int>(setup_samples.size()) < w.setup_samples) {
    DeliveryRun extra(w.delivery, &untraced);
    WarehouseTruth history;
    Status st;
    setup_samples.push_back(
        ReferenceSeconds([&] { st = Setup(w, &extra, &history); }));
    if (!st.ok()) {
      r.correct = false;
      std::fprintf(stderr, "[%s] setup: %s\n", name.c_str(),
                   st.ToString().c_str());
    }
  }

  std::vector<double> query_ms;
  std::vector<double> daily_s;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  std::vector<double> events_per_s;
  for (const Pass& p : passes) {
    r.attempted += p.attempted;
    r.failed += p.failed;
    if (!p.errors.empty()) r.correct = false;
    for (const auto& e : p.errors) {
      std::fprintf(stderr, "[%s] FAILED: %s\n", name.c_str(), e.c_str());
    }
    const auto& a = p.analytics;
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&query_ms, a.query_ms);
    append(&daily_s, a.daily_job_s);
    append(&cold_ms, a.cold_tick_ms);
    append(&warm_ms, a.warm_tick_ms);
    events_per_s.push_back(p.events_per_s);
    // Every pass of one seed must reproduce the first exactly.
    if (p.sim_digest != passes[0].sim_digest ||
        p.analytics.answer_digest != passes[0].analytics.answer_digest) {
      r.correct = false;
      std::fprintf(stderr, "[%s] FAILED: pass digests differ\n", name.c_str());
    }
  }
  std::string error;
  const std::string digests =
      "sim=" + Hex(passes[0].sim_digest) +
      " answers=" + Hex(passes[0].analytics.answer_digest);
  if (r.correct && r.failed == 0 &&
      !CheckStoredDigests(args, name, digests, &error)) {
    r.correct = false;
    std::fprintf(stderr, "[%s] FAILED: %s\n", name.c_str(), error.c_str());
  }
  if (r.failed > 0) r.correct = false;
  if (!r.correct && r.failed == 0) r.failed = 1;

  std::fprintf(stderr,
               "[%s] %s\n[%s] seed=%" PRIu64 " passes=%zu events=%zu "
               "queries=%zu attempted=%" PRIu64 " failed=%" PRIu64
               " sim=%s answers=%s\n",
               name.c_str(), passes[0].audit.c_str(), name.c_str(), args.seed,
               passes.size(),
               passes[0].freshness_ms.size(), query_ms.size(), r.attempted,
               r.failed, Hex(passes[0].sim_digest).c_str(),
               Hex(passes[0].analytics.answer_digest).c_str());
  std::string samples;
  for (double v : setup_samples) samples += " " + std::to_string(v);
  std::fprintf(stderr, "[%s] setup samples (s):%s\n", name.c_str(),
               samples.c_str());

  auto add = [&r](const std::string& metric, double value, const char* unit) {
    r.metrics.push_back({metric, MetricValue{value, unit}});
  };
  if (!args.trace) {
    add("setup_s", Median(setup_samples), "s");
    add("events_per_s", Median(events_per_s), "1/s");
    add("freshness_p50_ms", Quantile(passes[0].freshness_ms, 0.5), "ms");
    add("freshness_p99_ms", Quantile(passes[0].freshness_ms, 0.99), "ms");
    add("query_p50_ms", Quantile(query_ms, 0.5), "ms");
    add("query_p99_ms", Quantile(query_ms, 0.99), "ms");
    add("daily_job_s", Median(daily_s), "s");
    add("oink_cold_tick_ms", Median(cold_ms), "ms");
    add("oink_warm_tick_ms", Median(warm_ms), "ms");
    add("peak_rss_mb", passes[0].peak_rss_mb, "MB");
  } else {
    traced.Set("trace.traced_s", passes[0].run_s, "s");
    traced.Set("trace.untraced_s", passes[1].run_s, "s");
    traced.Set("trace.overhead_ratio", passes[0].run_s / passes[1].run_s,
               "ratio");
    for (const auto& [metric, unit] : LayerMetrics()) {
      add(metric, traced.Get(metric), unit.c_str());
    }
  }
  return r;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ReportJson(const Report& r) {
  std::string s = std::string("{\"correct\": ") +
                  (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, m] = r.metrics[i];
    s += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " +
         JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}}";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--state-dir") {
      args->state_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  Workload probe;
  if (!ParseArgs(argc, argv, &args) ||
      (args.workload != "all" && !MakeWorkload(args.workload, 1, &probe))) {
    std::fprintf(stderr,
                 "usage: perfbench --workload soak|ingest|analytics|all "
                 "--seed N --seconds S --trace 0|1 [--state-dir DIR]\n");
    return 2;
  }
  exec::ExecOptions exec_options;
  exec_options.threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  exec::Executor exec(exec_options);
  HostSpeed::ProbeWindow();

  std::vector<std::string> names = {args.workload};
  if (args.workload == "all") names = {"soak", "ingest", "analytics"};
  Report total;
  for (const std::string& name : names) {
    Report r = RunWorkload(args, name, &exec);
    if (names.size() > 1) {
      std::printf("%s %s\n", name.c_str(), ReportJson(r).c_str());
    }
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    for (auto& [metric, value] : r.metrics) {
      total.metrics.push_back(
          {names.size() > 1 ? name + "." + metric : metric, value});
    }
  }
  std::printf("%s\n", ReportJson(total).c_str());
  std::fflush(stdout);
  return total.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
