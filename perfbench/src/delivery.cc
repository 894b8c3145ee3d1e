#include "delivery.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string_view>
#include <utility>

#include "columnar/scrubber.h"
#include "common/json.h"
#include "common/rng.h"
#include "dataflow/columnar_scan.h"
#include "hdfs/mini_hdfs.h"
#include "ledger.h"
#include "scribe/cluster.h"
#include "sim/simulator.h"

namespace perfbench {

using namespace unilog;

namespace {

// Cadence of the benchmark's own gauge sampler (queue and retention peaks).
constexpr TimeMs kSampleIntervalMs = kMillisPerMinute;
// Cadence of the host-speed probes that close each timed window of the run.
constexpr TimeMs kProbeIntervalMs = 2 * kMillisPerMinute;

bool HiddenPath(const std::string& path) {
  return path.find("/_") != std::string::npos;
}

// Sum of count and sum over every label set of a registry histogram.
void HistogramTotals(const obs::MetricsRegistry& metrics,
                     const std::string& name, double* count, double* sum) {
  *count = 0;
  *sum = 0;
  Json report = metrics.JsonReport();
  for (const auto& [key, hist] : report["histograms"].object_items()) {
    if (key != name && key.rfind(name + "{", 0) != 0) continue;
    *count += hist["count"].number_value();
    *sum += hist["sum"].number_value();
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Parses an hour partition path "YYYY/MM/DD/HH" (HourPartitionPath).
bool ParseHourPartition(const std::string& path, TimeMs* hour) {
  int y = 0;
  int m = 0;
  int d = 0;
  int h = 0;
  char tail = 0;
  if (std::sscanf(path.c_str(), "%4d/%2d/%2d/%2d%c", &y, &m, &d, &h, &tail) !=
      4) {
    return false;
  }
  *hour = MakeDate(y, m, d) + h * kMillisPerHour;
  return HourPartitionPath(*hour) == path;
}

// One client event read back from the warehouse for the checks.
struct LandedRow {
  int64_t user_id = 0;
  int64_t timestamp = 0;
  std::string_view session_id;
  std::string_view event_name;
  std::string_view ip;
};

// Row `row` of a string or dictionary column, or of a boxed string column.
std::string_view StrAt(const dataflow::ColumnData& col, size_t row) {
  switch (col.kind) {
    case dataflow::ColumnKind::kString:
      return col.str[row];
    case dataflow::ColumnKind::kDict:
      return (*col.dict)[col.codes[row]];
    default:
      return col.vals[row].str_value();
  }
}

int64_t IntAt(const dataflow::ColumnData& col, size_t row) {
  return col.kind == dataflow::ColumnKind::kInt64 ? col.i64[row]
                                                  : col.vals[row].int_value();
}

// Calls `fn` for every client event stored under `dir`, in scan order.
Status ForEachLandedRow(const hdfs::MiniHdfs* fs, const std::string& dir,
                        const std::function<void(const LandedRow&)>& fn) {
  UNILOG_ASSIGN_OR_RETURN(auto scan,
                          dataflow::ColumnarEventScan::Open(fs, dir));
  UNILOG_ASSIGN_OR_RETURN(dataflow::BatchRelation rel,
                          scan->MaterializeBatches(nullptr));
  UNILOG_ASSIGN_OR_RETURN(size_t user_col, rel.ColumnIndex("user_id"));
  UNILOG_ASSIGN_OR_RETURN(size_t ts_col, rel.ColumnIndex("timestamp"));
  UNILOG_ASSIGN_OR_RETURN(size_t session_col, rel.ColumnIndex("session_id"));
  UNILOG_ASSIGN_OR_RETURN(size_t name_col, rel.ColumnIndex("event_name"));
  UNILOG_ASSIGN_OR_RETURN(size_t ip_col, rel.ColumnIndex("ip"));
  for (const dataflow::ColumnBatch& batch : rel.batches()) {
    for (size_t k = 0; k < batch.selected_rows(); ++k) {
      const size_t r = batch.RowIndex(k);
      LandedRow row;
      row.user_id = IntAt(*batch.col(user_col), r);
      row.timestamp = IntAt(*batch.col(ts_col), r);
      row.session_id = StrAt(*batch.col(session_col), r);
      row.event_name = StrAt(*batch.col(name_col), r);
      row.ip = StrAt(*batch.col(ip_col), r);
      fn(row);
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t LostEvents(const obs::DeliverySnapshot& a) {
  return a.dropped_at_daemons + a.lost_in_crash + a.dropped_overflow +
         a.late_dropped + a.lost_unreplicated;
}

struct DeliveryRun::CorruptState {
  Rng rng;
  explicit CorruptState(uint64_t seed) : rng(seed) {}
};

DeliveryRun::DeliveryRun(DeliveryConfig config, Ledger* ledger)
    : config_(std::move(config)), ledger_(ledger) {}

DeliveryRun::~DeliveryRun() = default;

hdfs::MiniHdfs* DeliveryRun::warehouse() { return cluster_->warehouse(); }

const obs::MetricsRegistry& DeliveryRun::metrics() const {
  return *cluster_->metrics();
}

Status DeliveryRun::Setup() {
  const soak::SoakOptions& o = options_;
  const TimeMs start = o.start;
  end_ = start + static_cast<TimeMs>(o.hours) * kMillisPerHour;
  drained_ = end_ + o.drain_ms;

  sim_ = std::make_unique<Simulator>(start);
  scribe::ClusterTopology topo;
  topo.datacenters = o.datacenters;
  topo.aggregators_per_dc = o.aggregators_per_dc;
  topo.daemons_per_dc = o.daemons_per_dc;
  topo.brokers_per_dc = o.brokers_per_dc;
  topo.broker_datacenters = o.broker_datacenters;
  topo.broker_options = config_.broker;
  topo.staging_hdfs.num_datanodes = o.staging_datanodes;
  topo.staging_hdfs.replication = o.staging_replication;
  topo.warehouse_hdfs.num_datanodes = o.warehouse_datanodes;
  topo.warehouse_hdfs.replication = o.warehouse_replication;

  scribe::LogMoverOptions mover_options = o.mover;
  mover_options.columnar_categories.insert(o.category);
  cluster_ = std::make_unique<scribe::ScribeCluster>(
      sim_.get(), topo, o.scribe, mover_options, o.seed);
  UNILOG_RETURN_NOT_OK(cluster_->Start());

  // One generator shard per simulated hour, seeded from the master seed.
  Rng master(o.seed);
  for (int h = 0; h < o.hours; ++h) {
    const uint64_t shard_seed = master.Next64();
    sim_->At(start + static_cast<TimeMs>(h) * kMillisPerHour,
             [this, h, shard_seed] { GenerateHour(h, shard_seed); });
  }

  if (config_.chaos) ScheduleChaos(topo);

  // Background scrub of the columnar warehouse.
  for (TimeMs t = start + o.scrub_interval_ms; t < drained_;
       t += o.scrub_interval_ms) {
    sim_->At(t, [this] {
      Span span(ledger_, "columnar.scrub_ms");
      double t0 = CpuSeconds();
      (void)columnar::ScrubColumnarDir(cluster_->warehouse(), "/logs",
                                       cluster_->metrics());
      own_callbacks_cpu_s_ += CpuSeconds() - t0;
    });
  }
  for (TimeMs t = start + kSampleIntervalMs; t <= drained_;
       t += kSampleIntervalMs) {
    sim_->At(t, [this] { Sample(); });
  }
  for (TimeMs t = start + kProbeIntervalMs; t <= drained_;
       t += kProbeIntervalMs) {
    sim_->At(t, [this] { CloseWindow(); });
  }
  return Status::OK();
}

void DeliveryRun::GenerateHour(int h, uint64_t shard_seed) {
  const soak::SoakOptions& o = options_;
  const TimeMs hour_start = o.start + static_cast<TimeMs>(h) * kMillisPerHour;
  const uint64_t allocs0 = AllocCount();
  const double t0 = CpuSeconds();

  workload::WorkloadOptions w;
  w.seed = shard_seed;
  w.num_users = o.users_per_hour;
  w.user_id_base = 1000000 + static_cast<int64_t>(h) * o.users_per_hour;
  w.start = hour_start;
  w.duration = config_.shard_window_ms;
  w.sessions_per_user_mean = o.sessions_per_user_mean;
  w.events_per_session_mean = o.events_per_session_mean;
  workload::WorkloadGenerator generator(std::move(w));
  std::vector<events::ClientEvent> batch;
  Status st = generator.Generate(
      [&batch](const events::ClientEvent& ev) { batch.push_back(ev); });
  if (!st.ok() && workload_status_.ok()) workload_status_ = st;
  truth_.AddGenerator(generator, TruncateToDay(hour_start));
  for (const events::ClientEvent& ev : batch) {
    truth_.AddEvent(ev);
    logged_keys_.push_back(EventKey(ev));
  }
  const double t1 = CpuSeconds();
  generate_cpu_s_ += t1 - t0;
  if (ledger_->enabled()) {
    ledger_->Add("workload.generate_ms", (t1 - t0) * 1e3, "ms");
    ledger_->Add("workload.events", static_cast<double>(batch.size()),
                 "count");
  }

  // Serialize and schedule each event's Log() at its own stamp (open loop).
  const size_t dc_count = cluster_->datacenter_count();
  const bool traced = ledger_->enabled();
  uint64_t serialized_bytes = 0;
  for (const events::ClientEvent& ev : batch) {
    const size_t dc = static_cast<size_t>(ev.user_id) % dc_count;
    std::string message = ev.Serialize();
    serialized_bytes += message.size();
    if (traced) {
      sim_->At(ev.timestamp, [this, dc, message = std::move(message)] {
        const uint64_t a0 = AllocCount();
        const double s0 = CpuSeconds();
        cluster_->Log(dc, scribe::LogEntry{options_.category, message});
        const double s1 = CpuSeconds();
        const uint64_t allocs = AllocCount() - a0;
        log_cpu_s_ += s1 - s0;
        log_allocs_ += allocs;
        own_callbacks_cpu_s_ += s1 - s0;
        own_callback_allocs_ += allocs;
      });
    } else {
      sim_->At(ev.timestamp, [this, dc, message = std::move(message)] {
        cluster_->Log(dc, scribe::LogEntry{options_.category, message});
      });
    }
  }
  const double t2 = CpuSeconds();
  if (traced) {
    ledger_->Add("events.serialize_ms", (t2 - t1) * 1e3, "ms");
    ledger_->Add("events.serialized_bytes",
                 static_cast<double>(serialized_bytes), "bytes");
  }
  own_callbacks_cpu_s_ += t2 - t0;
  own_callback_allocs_ += AllocCount() - allocs0;
}

void DeliveryRun::ScheduleChaos(const scribe::ClusterTopology& topo) {
  const soak::SoakOptions& o = options_;
  TimeMs chaos_start = o.start + 30 * kMillisPerMinute;
  TimeMs chaos_end = end_ - 30 * kMillisPerMinute;
  if (chaos_end <= chaos_start) {
    chaos_start = o.start;
    chaos_end = end_;
  }
  soak::ChaosSchedule schedule = soak::ChaosSchedule::Generate(
      o.chaos, topo, chaos_start, chaos_end, o.seed);
  chaos_events_ = schedule.events().size();
  corrupt_ = std::make_unique<CorruptState>(o.seed ^ 0xC02201u);
  scribe::ScribeCluster* cluster = cluster_.get();
  for (const soak::ChaosEvent& ev : schedule.events()) {
    switch (ev.kind) {
      case soak::ChaosKind::kAggregatorCrash:
        sim_->At(ev.at,
                 [cluster, ev] { cluster->CrashAggregator(ev.dc, ev.index); });
        sim_->At(ev.at + ev.duration_ms, [cluster, ev] {
          (void)cluster->RestartAggregator(ev.dc, ev.index);
        });
        break;
      case soak::ChaosKind::kBrokerCrash:
        sim_->At(ev.at,
                 [cluster, ev] { cluster->CrashBroker(ev.dc, ev.index); });
        sim_->At(ev.at + ev.duration_ms, [cluster, ev] {
          (void)cluster->RestartBroker(ev.dc, ev.index);
        });
        break;
      case soak::ChaosKind::kZkExpiryStorm:
        for (int i = 0; i < ev.count; ++i) {
          size_t target = (ev.index + i) % cluster->broker_count(ev.dc);
          sim_->At(ev.at + i * 250, [cluster, ev, target] {
            (void)cluster->ExpireBrokerSession(ev.dc, target);
          });
        }
        break;
      case soak::ChaosKind::kStagingBrownout:
        for (int i = 0; i < ev.count; ++i) {
          int node = static_cast<int>((ev.index + i) % o.staging_datanodes);
          sim_->At(ev.at, [cluster, ev, node] {
            cluster->staging(ev.dc)->SetDatanodeAvailable(node, false);
          });
          sim_->At(ev.at + ev.duration_ms, [cluster, ev, node] {
            cluster->staging(ev.dc)->SetDatanodeAvailable(node, true);
          });
        }
        break;
      case soak::ChaosKind::kWarehouseBrownout:
        for (int i = 0; i < ev.count; ++i) {
          int node = static_cast<int>((ev.index + i) % o.warehouse_datanodes);
          sim_->At(ev.at, [cluster, node] {
            cluster->warehouse()->SetDatanodeAvailable(node, false);
          });
          sim_->At(ev.at + ev.duration_ms, [cluster, node] {
            cluster->warehouse()->SetDatanodeAvailable(node, true);
          });
        }
        break;
      case soak::ChaosKind::kClockSkew:
        sim_->At(ev.at, [cluster, ev] {
          cluster->aggregator(ev.dc, ev.index)->SetClockSkew(ev.skew_ms);
        });
        sim_->At(ev.at + ev.duration_ms, [cluster, ev] {
          cluster->aggregator(ev.dc, ev.index)->SetClockSkew(0);
        });
        break;
      case soak::ChaosKind::kCorruptPart:
        sim_->At(ev.at, [this] { TryCorruptPart(6); });
        break;
    }
  }
}

// Flips one byte (past the magic) of a random landed warehouse part, the
// same draw soak::SoakHarness makes; retries while nothing has landed.
void DeliveryRun::TryCorruptPart(int retries_left) {
  hdfs::MiniHdfs* warehouse = cluster_->warehouse();
  auto files = warehouse->ListRecursive("/logs");
  std::vector<hdfs::FileStatus> candidates;
  if (files.ok()) {
    for (const auto& f : *files) {
      if (!HiddenPath(f.path) && f.size > 8) candidates.push_back(f);
    }
  }
  if (candidates.empty()) {
    if (retries_left > 0) {
      sim_->After(10 * kMillisPerMinute,
                  [this, retries_left] { TryCorruptPart(retries_left - 1); });
    }
    return;
  }
  const hdfs::FileStatus& f =
      candidates[corrupt_->rng.Uniform(candidates.size())];
  uint64_t offset = 4 + corrupt_->rng.Next64() % (f.size - 4);
  (void)warehouse->CorruptFile(f.path, offset);
}

void DeliveryRun::CloseWindow() {
  const double now = CpuSeconds();
  const uint64_t allocs0 = AllocCount();
  const double busy =
      now - window_cpu0_ - (generate_cpu_s_ - window_generate0_);
  HostSpeed::Probe();
  run_reference_s_ += busy * HostSpeed::Scale();
  window_cpu0_ = CpuSeconds();
  window_generate0_ = generate_cpu_s_;
  own_callbacks_cpu_s_ += window_cpu0_ - now;
  own_callback_allocs_ += AllocCount() - allocs0;
}

void DeliveryRun::Sample() {
  const obs::MetricsRegistry& m = *cluster_->metrics();
  queue_peak_ = std::max(queue_peak_, m.GaugeTotal("daemon.queue_entries"));
  retained_peak_ = std::max(retained_peak_,
                            m.GaugeTotal("broker.retained_bytes_compressed"));
}

Status DeliveryRun::Run() {
  const uint64_t sim_events0 = sim_->EventsProcessed();
  const uint64_t allocs0 = AllocCount();
  // The run phase is the window and the drain, timed in windows of
  // kProbeIntervalMs sim time, each scaled to the reference host by the
  // probes around it; generator and probe time are excluded.
  HostSpeed::ProbeWindow();
  const double t0 = CpuSeconds();
  window_cpu0_ = t0;
  window_generate0_ = generate_cpu_s_;
  run_reference_s_ = 0;
  sim_->RunUntil(end_);
  const double t1 = CpuSeconds();
  sim_->RunUntil(drained_);
  cluster_->mover()->RunOnce();
  const double t2 = CpuSeconds();
  const double own_callbacks_s = own_callbacks_cpu_s_;
  CloseWindow();
  // The post-drain scrub is timed only as columnar.scrub_ms.
  {
    Span span(ledger_, "columnar.scrub_ms");
    (void)columnar::ScrubColumnarDir(cluster_->warehouse(), "/logs",
                                     cluster_->metrics());
  }
  if (ledger_->enabled()) {
    const double sim_events =
        static_cast<double>(sim_->EventsProcessed() - sim_events0);
    const double self_ms = (t2 - t0 - own_callbacks_s) * 1e3;
    const double self_allocs =
        static_cast<double>(AllocCount() - allocs0 - own_callback_allocs_);
    const double logged = static_cast<double>(
        cluster_->metrics()->CounterTotal("daemon.entries_logged"));
    ledger_->Add("sim.run_ms", self_ms, "ms");
    ledger_->Add("sim.events", sim_events, "count");
    ledger_->Set("sim.events_per_logged_event", Ratio(sim_events, logged),
                 "ratio");
    ledger_->Set("sim.ns_per_event", Ratio(self_ms * 1e6, sim_events), "ns");
    ledger_->Set("sim.allocs_per_event", Ratio(self_allocs, sim_events),
                 "count");
    ledger_->Add("scribe.mover.drain_ms", (t2 - t1) * 1e3, "ms");
    RecordLayerCounters();
  }
  return workload_status_;
}

void DeliveryRun::RecordLayerCounters() {
  const obs::MetricsRegistry& m = *cluster_->metrics();
  auto counter = [&m](const char* name) {
    return static_cast<double>(m.CounterTotal(name));
  };
  Ledger& l = *ledger_;
  l.Add("scribe.log_ms", log_cpu_s_ * 1e3, "ms");
  l.Add("scribe.log_allocs", static_cast<double>(log_allocs_), "count");
  double batches = 0;
  double batch_entries = 0;
  HistogramTotals(m, "daemon.batch_entries", &batches, &batch_entries);
  l.Set("scribe.daemon.batches", batches, "count");
  l.Set("scribe.daemon.entries_per_batch", Ratio(batch_entries, batches),
        "count");
  l.Set("scribe.daemon.send_failures", counter("daemon.send_failures"),
        "count");
  l.Set("scribe.daemon.produce_throttled", counter("daemon.produce_throttled"),
        "count");
  l.Set("scribe.daemon.queue_peak", static_cast<double>(queue_peak_), "count");
  l.Set("scribe.agg.files_written", counter("agg.files_written"), "count");
  l.Set("scribe.agg.bytes_written", counter("agg.bytes_written"), "bytes");
  const double pool_hits = counter("scribe.ingest.pool_hits");
  l.Set("scribe.pool_hit_ratio",
        Ratio(pool_hits, pool_hits + counter("scribe.ingest.pool_misses")),
        "ratio");
  l.Set("scribe.mover.hours_moved", counter("mover.hours_moved"), "count");
  l.Set("scribe.mover.broker_batches_decoded",
        counter("mover.broker_batches_decoded"), "count");
  l.Set("scribe.mover.columnar_files_written",
        counter("mover.columnar_files_written"), "count");
  l.Set("scribe.mover.move_retries", counter("mover.move_retries"), "count");
  l.Set("scribe.mover.barrier_stalls", counter("mover.barrier_stalls"),
        "count");
  l.Set("broker.produce_calls", counter("broker.produce_calls"), "count");
  l.Set("broker.wire_ratio",
        Ratio(counter("broker.wire_bytes_produced"),
              counter("broker.bytes_produced")),
        "ratio");
  l.Set("broker.replication_rounds", counter("broker.replication_rounds"),
        "count");
  l.Set("broker.bytes_consumed", counter("broker.bytes_consumed"), "bytes");
  l.Set("broker.dup_ratio",
        Ratio(counter("broker.entries_duplicate"),
              counter("broker.entries_produced")),
        "ratio");
  l.Set("broker.throttled",
        counter("broker.throttled_backpressure") +
            counter("broker.throttled_rate"),
        "count");
  l.Set("broker.elections", counter("broker.elections_won"), "count");
  l.Set("broker.retained_bytes_peak", static_cast<double>(retained_peak_),
        "bytes");
  l.Set("zk.watch_fires", counter("zk.watch_fires"), "count");
  l.Set("zk.sessions_opened", counter("zk.sessions_opened"), "count");
  l.Set("hdfs.rejections",
        counter("hdfs.brownout_rejections") +
            counter("hdfs.unavailable_rejections"),
        "count");
}

DeliveryOutcome DeliveryRun::Verify() {
  DeliveryOutcome out;
  out.chaos_events = chaos_events_;
  auto fail = [&out](std::string message) {
    out.errors.push_back(std::move(message));
  };

  {
    Span span(ledger_, "obs.audit_ms");
    obs::DeliveryAudit audit(cluster_.get());
    out.audit = audit.Snapshot();
    Status quiescent = audit.AssertQuiescent();
    if (!quiescent.ok()) fail("audit: " + quiescent.ToString());
  }
  out.events_logged = out.audit.logged;
  if (out.events_logged != truth_.events) {
    fail("logged " + std::to_string(out.events_logged) + " events, generated " +
         std::to_string(truth_.events));
  }
  if (LostEvents(out.audit) != 0 || out.audit.corrupt_files_skipped != 0) {
    fail("loss channels not all zero: " + out.audit.ToString());
  }

  // Read back every landed hour: identity keys for the exactly-once check,
  // per-hour row counts, and per-row freshness against the partition's
  // slide time (the rename stamps the hour directory's mtime).
  hdfs::MiniHdfs* fs = cluster_->warehouse();
  const std::string root = "/logs/" + options_.category;
  std::vector<uint64_t> landed_keys;
  landed_keys.reserve(logged_keys_.size());
  landed_ = WarehouseTruth();
  landed_.users = truth_.users;
  landed_.day_funnel = truth_.day_funnel;
  std::map<TimeMs, uint64_t> landed_per_hour;
  auto files = fs->ListRecursive(root);
  std::vector<std::string> hour_dirs;
  if (!files.ok()) {
    fail("list " + root + ": " + files.status().ToString());
  } else {
    for (const auto& f : *files) {
      if (HiddenPath(f.path)) continue;
      std::string dir = f.path.substr(0, f.path.rfind('/'));
      if (hour_dirs.empty() || hour_dirs.back() != dir) {
        hour_dirs.push_back(dir);
      }
    }
  }
  for (const std::string& dir : hour_dirs) {
    auto stat = fs->Stat(dir);
    if (!stat.ok()) {
      fail("stat " + dir + ": " + stat.status().ToString());
      continue;
    }
    const TimeMs visible_at = stat->mtime;
    TimeMs partition = 0;
    if (!ParseHourPartition(dir.substr(root.size() + 1), &partition)) {
      fail("not an hour partition: " + dir);
      continue;
    }
    // Hours before the fleet started were landed by someone else.
    if (partition < TruncateToHour(options_.start)) continue;
    std::map<std::string, uint64_t>& names = landed_.hour_names[partition];
    Status st = ForEachLandedRow(fs, dir, [&](const LandedRow& row) {
      ++landed_.events;
      ++landed_.hour_events[partition];
      ++names[std::string(row.event_name)];
      landed_keys.push_back(EventKey(row.user_id, row.session_id,
                                     row.timestamp, row.event_name, row.ip));
      ++landed_per_hour[TruncateToHour(row.timestamp)];
      out.freshness_ms.push_back(
          static_cast<double>(visible_at - row.timestamp));
    });
    if (!st.ok()) fail("scan " + dir + ": " + st.ToString());
  }

  std::vector<uint64_t> logged = logged_keys_;
  std::sort(logged.begin(), logged.end());
  std::sort(landed_keys.begin(), landed_keys.end());
  uint64_t unexpected = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < logged.size() || j < landed_keys.size()) {
    uint64_t key = j == landed_keys.size() ||
                           (i < logged.size() && logged[i] <= landed_keys[j])
                       ? logged[i]
                       : landed_keys[j];
    uint64_t g = 0;
    uint64_t l = 0;
    while (i < logged.size() && logged[i] == key) ++g, ++i;
    while (j < landed_keys.size() && landed_keys[j] == key) ++l, ++j;
    if (g > l) out.failed_events += g - l;
    if (l > g) {
      out.failed_events += std::min(g, l - g);
      if (g == 0) unexpected += l;
    }
  }
  if (out.failed_events != 0) {
    fail(std::to_string(out.failed_events) +
         " events did not land exactly once");
  }
  if (unexpected != 0) {
    fail(std::to_string(unexpected) + " landed rows were never logged");
  }
  if (landed_per_hour != truth_.hour_events) {
    fail("rows landed per hour differ from events generated per hour");
  }
  out.events_per_s =
      Ratio(static_cast<double>(landed_.events), run_reference_s_);
  return out;
}

}  // namespace perfbench
