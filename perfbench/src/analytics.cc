#include "analytics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "analytics/pig_stdlib.h"
#include "columnar/rcfile.h"
#include "common/rng.h"
#include "dataflow/columnar_scan.h"
#include "dataflow/mapreduce.h"
#include "dataflow/pig.h"
#include "dataflow/relation.h"
#include "dataflow/relation_serde.h"
#include "dataflow/vector_engine.h"
#include "events/event_name.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "oink/workflow.h"
#include "pipeline/daily_pipeline.h"
#include "sessions/session_sequence.h"
#include "workload/hierarchy.h"

namespace perfbench {

using namespace unilog;
using dataflow::Aggregate;
using dataflow::Relation;
using dataflow::Value;

namespace {

std::string HourDir(const std::string& category, TimeMs hour) {
  return "/logs/" + category + "/" + HourPartitionPath(hour);
}

std::vector<std::string> SplitName(const std::string& name) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (true) {
    size_t colon = name.find(':', begin);
    parts.push_back(name.substr(begin, colon - begin));
    if (colon == std::string::npos) break;
    begin = colon + 1;
  }
  return parts;
}

// A glob that matches `name` and, depending on `shape`, its siblings.
std::string GlobFor(const std::string& name, uint64_t shape) {
  std::vector<std::string> c = SplitName(name);
  switch (shape % 5) {
    case 0:
      return c[0] + ":*";
    case 1:
      return "*:" + c.back();
    case 2:
      return c.size() > 2 ? c[0] + ":" + c[1] + ":*" : name;
    case 3:
      return c.size() > 3 ? "*:" + c[2] + ":*" : name;
    default:
      return name;
  }
}

Aggregate Count(const std::string& as) {
  Aggregate a;
  a.op = Aggregate::Op::kCount;
  a.as = as;
  return a;
}

// The answer every engine must give for "count events by name where the
// name matches `glob`": (event_name, n), sorted by name.
std::string ExpectedNameCounts(const std::map<std::string, uint64_t>& names,
                               const std::string& glob) {
  events::EventPattern pattern(glob);
  Relation rel({"event_name", "n"});
  for (const auto& [name, count] : names) {
    if (!pattern.Matches(name)) continue;
    (void)rel.AddRow(
        {Value::Str(name), Value::Int(static_cast<int64_t>(count))});
  }
  return dataflow::SerializeRelation(rel);
}

uint64_t MatchingCount(const std::map<std::string, uint64_t>& names,
                       const std::string& glob) {
  events::EventPattern pattern(glob);
  uint64_t total = 0;
  for (const auto& [name, count] : names) {
    if (pattern.Matches(name)) total += count;
  }
  return total;
}

// Accumulates the outcome of each operation and the answer digest.
class Checker {
 public:
  explicit Checker(AnalyticsOutcome* out) : out_(out) {}

  void Record(const std::string& answer) {
    out_->answer_digest = Fnv1a(answer, out_->answer_digest);
  }
  void Op(bool ok, const std::string& what) {
    ++out_->attempted;
    if (!ok) {
      ++out_->failed;
      if (out_->errors.size() < 20) out_->errors.push_back(what);
    }
  }

 private:
  AnalyticsOutcome* out_;
};

// Runs of each day's job; each rerun clears the day's sequence partition
// and must reproduce the first. A day's job time is its fastest run.
constexpr int kDailyRuns = 2;

// Rounds of the recurring workflows, each on a fresh engine with an empty
// artifact cache: a cold pass over every hour, then kWarmPasses warm passes.
// An hour's tick times are its fastest cold and fastest warm tick.
constexpr int kTickRounds = 3;
constexpr int kWarmPasses = 6;

enum class QueryKind { kVector, kPigRaw, kMapReduce, kPigSequences };

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kVector:
      return "vector";
    case QueryKind::kPigRaw:
      return "pig-raw";
    case QueryKind::kMapReduce:
      return "mapreduce";
    case QueryKind::kPigSequences:
      return "pig-sequences";
  }
  return "?";
}

class Client {
 public:
  Client(hdfs::MiniHdfs* fs, const WarehouseTruth& truth,
         const AnalyticsPlan& plan, exec::Executor* exec, Ledger* ledger,
         AnalyticsOutcome* out)
      : fs_(fs),
        truth_(truth),
        plan_(plan),
        exec_(exec),
        ledger_(ledger),
        out_(out),
        check_(out) {
    for (const auto& [hour, count] : truth_.hour_events) {
      hours_.push_back(hour);
      if (plan_.query_hours_before == 0 || hour < plan_.query_hours_before) {
        query_hours_.push_back(hour);
      }
    }
    users_ = truth_.UserTable();
    if (exec_ != nullptr) exec_->set_metrics(&metrics_);
  }
  ~Client() {
    if (exec_ != nullptr) exec_->set_metrics(nullptr);
  }

  void DailyJobs();
  void Workflows();
  void RawScan();
  void Queries();
  void RecordCounters();

 private:
  // Runs a Pig script on a fresh interpreter wired to the warehouse and
  // returns the relation bound to `alias`. Scripts calling the stdlib's
  // sequence UDFs run serially: CountClientEvents and ClientEventsFunnel
  // bind their dictionary lazily on first call, unsynchronized, so a
  // parallel FOREACH races on it.
  Result<Relation> RunPig(const std::string& script, const std::string& alias,
                          bool parallel);
  void Funnel(TimeMs day);
  Result<std::string> VectorQuery(const std::string& dir,
                                  const std::string& glob, bool push);
  Result<std::string> PigRawQuery(const std::string& dir,
                                  const std::string& glob, bool pushdown);
  Result<std::string> MapReduceQuery(const std::string& dir,
                                     const std::string& glob);
  Result<uint64_t> SequenceQuery(TimeMs day, const std::string& glob);

  hdfs::MiniHdfs* fs_;
  const WarehouseTruth& truth_;
  const AnalyticsPlan& plan_;
  exec::Executor* exec_;
  Ledger* ledger_;
  AnalyticsOutcome* out_;
  Checker check_;
  obs::MetricsRegistry metrics_;
  std::vector<TimeMs> hours_;
  std::vector<TimeMs> query_hours_;
  pipeline::UserTable users_;
  uint64_t vector_rows_ = 0;
  uint64_t vector_allocs_ = 0;
};

Result<Relation> Client::RunPig(const std::string& script,
                                const std::string& alias, bool parallel) {
  Span span(ledger_, "dataflow.pig_ms");
  dataflow::PigInterpreter pig;
  analytics::InstallPigStdlib(&pig, fs_, &metrics_);
  if (parallel) pig.set_executor(exec_);
  UNILOG_RETURN_NOT_OK(pig.Run(script));
  return pig.Lookup(alias);
}

void Client::DailyJobs() {
  for (TimeMs day : truth_.Days()) {
    const std::string what = "daily job " + DateString(day);
    const std::string partition = sessions::SequenceStore::PartitionDir(day);
    uint64_t first_sequences = 0;
    double fastest = 0;
    for (int run = 0; run < kDailyRuns; ++run) {
      if (run > 0) {
        Status st = fs_->Delete(partition, /*recursive=*/true);
        if (!st.ok()) {
          check_.Op(false, what + ": " + st.ToString());
          continue;
        }
      }
      pipeline::DailyPipeline daily(fs_, dataflow::JobCostModel{},
                                    plan_.category);
      daily.set_executor(exec_);
      Result<pipeline::DailyJobResult> result = Status::Internal("not run");
      const double seconds =
          ReferenceSeconds([&] { result = daily.RunForDate(day, users_); },
                           exec_);
      fastest = run == 0 ? seconds : std::min(fastest, seconds);
      if (!result.ok()) {
        check_.Op(false, what + ": " + result.status().ToString());
        continue;
      }
      const uint64_t sequences = result->sequences.size();
      if (run == 0) {
        first_sequences = sequences;
        check_.Record(std::to_string(sequences));
      }
      check_.Op(result->histogram.total_events() == truth_.DayEvents(day) &&
                    result->histogram.counts() == truth_.DayNames(day) &&
                    sequences == first_sequences,
                what + ": histogram differs from the generated events");
      if (ledger_->enabled()) {
        ledger_->Add("pipeline.daily_ms", seconds * 1e3, "ms");
      }
    }
    out_->daily_job_s.push_back(fastest);
    if (ledger_->enabled()) {
      ledger_->Add("sessions.sequences", static_cast<double>(first_sequences),
                   "count");
      auto files = fs_->ListRecursive(partition);
      if (files.ok()) {
        for (const auto& f : *files) {
          ledger_->Add("sessions.sequence_bytes", static_cast<double>(f.size),
                       "bytes");
        }
      }
    }
    Funnel(day);
  }
}

// §5.3 funnel over the day's session sequences, one Pig script per client,
// summed and compared with the planted funnel.
void Client::Funnel(TimeMs day) {
  constexpr int kStages = workload::ViewHierarchy::kSignupStages;
  const std::map<std::string, uint64_t> names = truth_.DayNames(day);
  std::vector<uint64_t> recovered(kStages, 0);
  std::string error;
  workload::WorkloadGenerator reference{workload::WorkloadOptions{}};
  for (const std::string& client : reference.hierarchy().clients()) {
    // A stage nobody reached today is absent from the dictionary; the
    // funnel is then the prefix of stages that were reached.
    std::string stages;
    for (int s = 0; s < kStages; ++s) {
      std::string stage = workload::ViewHierarchy::SignupStageEvent(client, s);
      if (!names.count(stage)) break;
      stages += (s == 0 ? "'" : ", '") + stage + "'";
    }
    if (stages.empty()) continue;
    auto rel = RunPig(
        "define Funnel ClientEventsFunnel(" + stages + ");\n"
        "raw = load '" + sessions::SequenceStore::PartitionDir(day) +
            "' using SessionSequencesLoader();\n"
            "staged = foreach raw generate Funnel(sequence) as stages;\n"
            "entered = filter staged by stages >= 1;\n"
            "grouped = group entered by stages;\n"
            "counts = foreach grouped generate stages, COUNT(*) as sessions;\n",
        "counts", /*parallel=*/false);
    if (!rel.ok()) {
      error = rel.status().ToString();
      break;
    }
    for (const auto& row : rel->rows()) {
      const int64_t reached = row[0].int_value();
      for (int64_t i = 0; i < reached && i < kStages; ++i) {
        recovered[i] += static_cast<uint64_t>(row[1].int_value());
      }
    }
  }
  std::vector<uint64_t> expected(kStages, 0);
  auto it = truth_.day_funnel.find(day);
  if (it != truth_.day_funnel.end()) expected = it->second;
  std::string answer;
  for (uint64_t n : recovered) answer += std::to_string(n) + ",";
  check_.Record(answer);
  check_.Op(error.empty() && recovered == expected,
            "funnel " + DateString(day) +
                (error.empty() ? ": stages differ from the planted funnel"
                               : ": " + error));
}

void Client::Workflows() {
  const std::string category = plan_.category;
  const TimeMs base = hours_.front();
  auto spec = [&](const std::string& name) {
    oink::WorkflowSpec s;
    s.name = name;
    s.input_dir = [category, base](int64_t idx) {
      return HourDir(category, base + idx * kMillisPerHour);
    };
    return s;
  };
  auto group_stage = [](std::vector<std::string> keys,
                        std::vector<Aggregate> aggs) {
    return [keys, aggs](const Relation& rel) {
      return rel.GroupBy(keys, aggs);
    };
  };
  std::vector<oink::WorkflowSpec> specs;
  {
    oink::WorkflowSpec s = spec("names");
    s.stage = group_stage({"event_name"}, {Count("n")});
    s.stage_id = "names-v1";
    specs.push_back(std::move(s));
  }
  {
    oink::WorkflowSpec s = spec("profile-clicks");
    s.filters = {{"event_name", "matches", Value::Str("*:profile_click")}};
    s.project_cols = {"user_id", "event_name"};
    s.project_names = {"uid", "name"};
    specs.push_back(std::move(s));
  }
  {
    oink::WorkflowSpec s = spec("signup-users");
    Aggregate users;
    users.op = Aggregate::Op::kCountDistinct;
    users.column = "user_id";
    users.as = "users";
    s.filters = {{"event_name", "matches", Value::Str("*:signup:*")}};
    s.stage = group_stage({"event_name"}, {Count("n"), users});
    s.stage_id = "signup-users-v1";
    specs.push_back(std::move(s));
  }
  {
    oink::WorkflowSpec s = spec("impressions-by-initiator");
    s.filters = {{"event_name", "matches", Value::Str("*:impression")}};
    s.stage = group_stage({"initiator"}, {Count("n")});
    s.stage_id = "impressions-by-initiator-v1";
    specs.push_back(std::move(s));
  }
  {
    oink::WorkflowSpec s = spec("events-per-user");
    s.stage = group_stage({"user_id"}, {Count("n")});
    s.stage_id = "events-per-user-v1";
    specs.push_back(std::move(s));
  }
  std::vector<std::string> names;
  for (const auto& s : specs) names.push_back(s.name);

  // Warm passes must serve results byte-identical to the cold pass, and
  // every round must reproduce the first.
  std::map<std::pair<size_t, std::string>, std::string> cold;
  std::vector<double> cold_ms(hours_.size(), 0);
  std::vector<double> warm_ms(hours_.size(), 0);
  uint64_t warm_hits = 0;
  uint64_t warm_lookups = 0;
  for (int round = 0; round < kTickRounds; ++round) {
    oink::OinkOptions options;
    options.cache_root = "/warehouse/_cache/round-" + std::to_string(round);
    // Ticks run on the engine's serial path: an hour's tick is a few ms of
    // work, and on the executor its CPU time was mostly thread hand-offs,
    // whose cost swings with the load on the host. The executor is measured
    // by the daily jobs and the queries.
    oink::WorkflowEngine engine(fs_, options, &metrics_, nullptr);
    for (const auto& s : specs) {
      Status st = engine.AddWorkflow(s);
      if (!st.ok()) {
        check_.Op(false, "add workflow: " + st.ToString());
        return;
      }
    }
    for (int pass = 0; pass <= kWarmPasses; ++pass) {
      for (size_t h = 0; h < hours_.size(); ++h) {
        const int64_t idx = (hours_[h] - base) / kMillisPerHour;
        Status st;
        const double ms =
            ReferenceSeconds([&] { st = engine.RunTick(idx); }) *
            1e3;
        double& best = (pass == 0 ? cold_ms : warm_ms)[h];
        best = round == 0 && pass <= 1 ? ms : std::min(best, ms);
        if (ledger_->enabled()) ledger_->Add("oink.tick_ms", ms, "ms");
        const std::string what = std::string(pass == 0 ? "cold" : "warm") +
                                 " tick " + HourPartitionPath(hours_[h]);
        if (!st.ok()) {
          check_.Op(false, what + ": " + st.ToString());
          continue;
        }
        if (pass > 0) {
          warm_hits += engine.last_tick().cache_hits;
          warm_lookups +=
              engine.last_tick().cache_hits + engine.last_tick().cache_misses;
        }
        bool ok = true;
        for (const std::string& name : names) {
          auto rel = engine.ResultFor(name);
          if (!rel.ok()) {
            ok = false;
            continue;
          }
          std::string bytes = dataflow::SerializeRelation(*rel);
          if (pass == 0 && round == 0) {
            if (name == "names") {
              auto it = truth_.hour_names.find(hours_[h]);
              ok = ok && it != truth_.hour_names.end() &&
                   bytes == ExpectedNameCounts(it->second, "*");
            }
            check_.Record(bytes);
            cold[{h, name}] = std::move(bytes);
          } else {
            ok = ok && cold[{h, name}] == bytes;
          }
        }
        check_.Op(ok, what + ": wrong or non-repeatable workflow result");
      }
    }
    (void)fs_->Delete(options.cache_root, /*recursive=*/true);
  }
  out_->cold_tick_ms = cold_ms;
  out_->warm_tick_ms = warm_ms;
  if (ledger_->enabled()) {
    ledger_->Set("oink.cache_hit_ratio",
                 warm_lookups > 0 ? static_cast<double>(warm_hits) /
                                        static_cast<double>(warm_lookups)
                                  : 0,
                 "ratio");
  }
}

Result<std::string> Client::VectorQuery(const std::string& dir,
                                        const std::string& glob, bool push) {
  std::shared_ptr<dataflow::ColumnarEventScan> scan;
  {
    Span span(ledger_, "columnar.open_ms");
    UNILOG_ASSIGN_OR_RETURN(
        scan, dataflow::ColumnarEventScan::Open(fs_, dir, &metrics_));
  }
  std::vector<dataflow::FilterExpr> filters;
  if (push) {
    scan->PushFilter("event_name", "matches", Value::Str(glob));
  } else {
    filters.push_back({"event_name", "matches", Value::Str(glob)});
  }
  // The query reads one column; the scan decodes only that one.
  scan->PushProject({"event_name"}, {"event_name"});
  dataflow::BatchRelation batches;
  {
    Span span(ledger_, "columnar.scan_ms");
    UNILOG_ASSIGN_OR_RETURN(batches, scan->MaterializeBatches(exec_));
  }
  dataflow::KernelStats stats;
  const uint64_t allocs0 = AllocCount();
  Relation rel;
  {
    Span span(ledger_, "dataflow.vector_ms");
    UNILOG_ASSIGN_OR_RETURN(
        rel, batches.FilterGroupBy(filters, {"event_name"}, {Count("n")},
                                   exec_, &stats));
  }
  vector_allocs_ += AllocCount() - allocs0;
  vector_rows_ += batches.TotalRows();
  if (ledger_->enabled()) {
    ledger_->Add("dataflow.dict_domain_rows_pruned",
                 static_cast<double>(stats.dict_domain_rows_pruned), "count");
  }
  return dataflow::SerializeRelation(rel);
}

Result<std::string> Client::PigRawQuery(const std::string& dir,
                                        const std::string& glob,
                                        bool pushdown) {
  UNILOG_ASSIGN_OR_RETURN(
      Relation rel,
      RunPig("raw = load '" + dir + "' using " +
                 (pushdown ? "ColumnarEventsLoader" : "ClientEventsLoader") +
                 "();\n"
                 "f = filter raw by event_name matches '" + glob + "';\n"
                 "g = group f by event_name;\n"
                 "c = foreach g generate event_name, COUNT(*) as n;\n"
                 "o = order c by event_name;\n",
             "o", /*parallel=*/true));
  return dataflow::SerializeRelation(rel);
}

Result<std::string> Client::MapReduceQuery(const std::string& dir,
                                           const std::string& glob) {
  Span span(ledger_, "dataflow.mapreduce_ms");
  events::EventPattern pattern(glob);
  dataflow::MapReduceJob job(fs_, dataflow::JobCostModel{});
  UNILOG_RETURN_NOT_OK(job.AddInputDir(dir));
  job.set_input_format(dataflow::InputFormat::CompressedFramedOrColumnar());
  job.set_executor(exec_);
  job.set_map([&pattern](const std::string& record,
                         dataflow::Emitter* e) -> Status {
    UNILOG_ASSIGN_OR_RETURN(events::ClientEvent ev,
                            events::ClientEvent::Deserialize(record));
    if (pattern.Matches(ev.event_name)) e->Emit(ev.event_name, "1");
    return Status::OK();
  });
  job.set_reduce([](const std::string& key,
                    const std::vector<std::string>& values,
                    dataflow::Emitter* e) -> Status {
    e->Emit(key, std::to_string(values.size()));
    return Status::OK();
  });
  UNILOG_ASSIGN_OR_RETURN(auto pairs, job.Run());
  std::sort(pairs.begin(), pairs.end());
  Relation rel({"event_name", "n"});
  for (const auto& [name, count] : pairs) {
    UNILOG_RETURN_NOT_OK(
        rel.AddRow({Value::Str(name), Value::Int(std::stoll(count))}));
  }
  if (ledger_->enabled()) {
    ledger_->Add("dataflow.mapreduce_map_tasks",
                 static_cast<double>(job.stats().map_tasks), "count");
    ledger_->Add("dataflow.mapreduce_bytes_shuffled",
                 static_cast<double>(job.stats().bytes_shuffled), "bytes");
  }
  return dataflow::SerializeRelation(rel);
}

Result<uint64_t> Client::SequenceQuery(TimeMs day, const std::string& glob) {
  UNILOG_ASSIGN_OR_RETURN(
      Relation rel,
      RunPig("define CountEvents CountClientEvents('" + glob + "');\n"
             "raw = load '" + sessions::SequenceStore::PartitionDir(day) +
                 "' using SessionSequencesLoader();\n"
                 "gen = foreach raw generate CountEvents(sequence) "
                 "as symbols;\n"
                 "grp = group gen all;\n"
                 "cnt = foreach grp generate SUM(symbols);\n",
             "cnt", /*parallel=*/false));
  if (rel.size() != 1 || rel.rows()[0].empty()) {
    return Status::Internal("expected one SUM row");
  }
  return static_cast<uint64_t>(rel.rows()[0].back().AsNumber());
}

// One MapReduce raw-log scan of the first queryable hour, so every
// workload times the MapReduce layer even when its ad-hoc mix has none.
void Client::RawScan() {
  const TimeMs hour = query_hours_.front();
  const std::string dir = HourDir(plan_.category, hour);
  auto answer = MapReduceQuery(dir, "*");
  const bool ok =
      answer.ok() &&
      *answer == ExpectedNameCounts(truth_.hour_names.at(hour), "*");
  if (answer.ok()) check_.Record(*answer);
  check_.Op(ok, "mapreduce raw scan " + dir +
                    (answer.ok() ? ": wrong answer"
                                 : ": " + answer.status().ToString()));
}

void Client::Queries() {
  Rng rng(plan_.seed ^ 0x51EC7ull);
  for (int sent = 0;
       sent < plan_.min_queries || HostSeconds() < plan_.query_deadline;
       ++sent) {
    const TimeMs hour = query_hours_[rng.Uniform(query_hours_.size())];
    const auto& names = truth_.hour_names.at(hour);
    auto pick = names.begin();
    std::advance(pick, static_cast<long>(rng.Uniform(names.size())));
    const std::string glob = GlobFor(pick->first, rng.Next64());
    const double draw = rng.NextDouble();
    const bool variant = rng.Bernoulli(0.5);
    QueryKind kind = QueryKind::kVector;
    if (draw < plan_.mix.pig_raw) {
      kind = QueryKind::kPigRaw;
    } else if (draw < plan_.mix.pig_raw + plan_.mix.mapreduce) {
      kind = QueryKind::kMapReduce;
    } else if (draw < plan_.mix.pig_raw + plan_.mix.mapreduce +
                          plan_.mix.pig_sequences) {
      kind = QueryKind::kPigSequences;
    }
    const std::string dir = HourDir(plan_.category, hour);
    const std::string what =
        std::string(KindName(kind)) + " query " + dir + " '" + glob + "'";

    Result<std::string> answer = std::string();
    const double seconds = ReferenceSeconds([&] {
      if (kind == QueryKind::kPigSequences) {
        auto total = SequenceQuery(TruncateToDay(hour), glob);
        answer = total.ok() ? Result<std::string>(std::to_string(*total))
                            : Result<std::string>(total.status());
      } else if (kind == QueryKind::kVector) {
        answer = VectorQuery(dir, glob, variant);
      } else if (kind == QueryKind::kPigRaw) {
        answer = PigRawQuery(dir, glob, variant);
      } else {
        answer = MapReduceQuery(dir, glob);
      }
    }, exec_);
    out_->query_ms.push_back(seconds * 1e3);
    const std::string expected =
        kind == QueryKind::kPigSequences
            ? std::to_string(
                  MatchingCount(truth_.DayNames(TruncateToDay(hour)), glob))
            : ExpectedNameCounts(names, glob);
    if (!answer.ok()) {
      check_.Op(false, what + ": " + answer.status().ToString());
      continue;
    }
    // Queries past the fixed count depend on host speed; they are checked
    // but kept out of the digest.
    if (sent < plan_.min_queries) check_.Record(*answer);
    check_.Op(*answer == expected, what + ": wrong answer");
  }
}

void Client::RecordCounters() {
  if (!ledger_->enabled()) return;
  auto counter = [this](const char* name) {
    return static_cast<double>(metrics_.CounterTotal(name));
  };
  Ledger& l = *ledger_;
  const double scanned = counter("columnar.groups_scanned");
  const double skipped = counter("columnar.groups_skipped");
  l.Add("columnar.bytes_decompressed", counter("columnar.bytes_decompressed"),
        "bytes");
  l.Set("columnar.groups_skipped_ratio",
        scanned + skipped > 0 ? skipped / (scanned + skipped) : 0, "ratio");
  l.Add("columnar.rows_returned", counter("columnar.rows_returned"), "count");
  const double vector_ms = l.Get("dataflow.vector_ms");
  l.Set("dataflow.vector_rows_per_s",
        vector_ms > 0 ? static_cast<double>(vector_rows_) / (vector_ms / 1e3)
                      : 0,
        "1/s");
  l.Set("dataflow.vector_allocs_per_row",
        vector_rows_ > 0 ? static_cast<double>(vector_allocs_) /
                               static_cast<double>(vector_rows_)
                         : 0,
        "count");
  l.Add("exec.morsel_steals", counter("exec.morsel_steals"), "count");
  // The host-speed probes' own tasks are left out.
  const uint64_t probe_tasks =
      metrics_.GetCounter("exec_tasks", {{"stage", HostSpeed::kStage}})
          ->value();
  l.Add("exec.tasks",
        counter("exec_tasks") - static_cast<double>(probe_tasks), "count");
  l.Add("oink.scan_bytes_decompressed", counter("oink.scan_bytes_decompressed"),
        "bytes");
  l.Add("oink.shared_scan_fanout", counter("oink.shared_scan_fanout"),
        "count");
  l.Add("oink.stats_cache_misses", counter("oink.stats_cache_misses"),
        "count");
}

}  // namespace

Status LandHistory(hdfs::MiniHdfs* fs, const std::string& category,
                   TimeMs first_day, int days, int users_per_day,
                   uint64_t seed, WarehouseTruth* truth) {
  Rng master(seed ^ 0x4157ull);
  for (int d = 0; d < days; ++d) {
    const TimeMs day = first_day + static_cast<TimeMs>(d) * kMillisPerDay;
    workload::WorkloadOptions w;
    w.seed = master.Next64();
    w.num_users = users_per_day;
    w.user_id_base = 5000000 + static_cast<int64_t>(d) * users_per_day;
    w.start = day;
    // Sessions stay inside the day, so each day's job sees whole sessions.
    w.duration = kMillisPerDay - 2 * kMillisPerHour;
    workload::WorkloadGenerator generator(std::move(w));
    std::map<TimeMs, std::vector<events::ClientEvent>> hours;
    UNILOG_RETURN_NOT_OK(generator.Generate([&](const events::ClientEvent& ev) {
      truth->AddEvent(ev);
      hours[TruncateToHour(ev.timestamp)].push_back(ev);
    }));
    truth->AddGenerator(generator, day);
    // One RCFile v2 part per hour, as the mover writes hours of this size.
    for (auto& [hour, rows] : hours) {
      std::string body;
      columnar::RcFileWriter writer(&body);
      for (const auto& ev : rows) UNILOG_RETURN_NOT_OK(writer.Add(ev));
      UNILOG_RETURN_NOT_OK(writer.Finish());
      UNILOG_RETURN_NOT_OK(
          fs->WriteFile(HourDir(category, hour) + "/part-00000", body));
    }
  }
  return Status::OK();
}

AnalyticsOutcome RunAnalytics(hdfs::MiniHdfs* fs, const WarehouseTruth& truth,
                              const AnalyticsPlan& plan, exec::Executor* exec,
                              Ledger* ledger) {
  AnalyticsOutcome out;
  out.answer_digest = Fnv1a("perfbench-analytics");
  if (truth.hour_events.empty()) {
    out.attempted = 1;
    out.failed = 1;
    out.errors.push_back("no landed hours to query");
    return out;
  }
  Client client(fs, truth, plan, exec, ledger, &out);
  HostSpeed::ProbeWindow(exec);
  const double t0 = HostSeconds();
  client.DailyJobs();
  const double t1 = HostSeconds();
  client.Workflows();
  client.RawScan();
  const double t2 = HostSeconds();
  client.Queries();
  const double t3 = HostSeconds();
  client.RecordCounters();
  std::fprintf(stderr,
               "  analytics: daily jobs %.2f s, workflows %.2f s, "
               "%zu queries %.2f s\n",
               t1 - t0, t2 - t1, out.query_ms.size(), t3 - t2);
  return out;
}

}  // namespace perfbench
