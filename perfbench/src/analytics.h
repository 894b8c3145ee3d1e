#ifndef PERFBENCH_ANALYTICS_H_
#define PERFBENCH_ANALYTICS_H_

// The read half of the benchmark: one closed-loop client running a fixed,
// seeded plan over a landed warehouse — the §4.2 daily job per day, the
// recurring Oink workflows ticked over every hour (cold, then warm), and a
// mix of ad-hoc queries on the vector engine, Pig (raw logs and session
// sequences) and MapReduce. Every answer is checked against ground truth.

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "truth.h"

namespace unilog {
namespace hdfs {
class MiniHdfs;
}
namespace exec {
class Executor;
}
}  // namespace unilog

namespace perfbench {

class Ledger;

/// Shares of the ad-hoc query mix by engine; the rest run on the vector
/// engine (fused filter + group-by through ColumnarEventScan).
struct QueryMix {
  double pig_raw = 0.15;
  double mapreduce = 0.05;
  double pig_sequences = 0.05;
};

struct AnalyticsPlan {
  std::string category;
  uint64_t seed = 1;
  /// The ad-hoc mix runs at least `min_queries`, and keeps going until the
  /// host clock (HostSeconds) reaches `query_deadline`.
  int min_queries = 1000;
  double query_deadline = 0;
  /// When set, ad-hoc queries draw only hours before this one.
  TimeMs query_hours_before = 0;
  QueryMix mix;
};

struct AnalyticsOutcome {
  std::vector<double> query_ms;
  std::vector<double> daily_job_s;
  std::vector<double> cold_tick_ms;
  std::vector<double> warm_tick_ms;
  /// Queries, jobs and ticks run, and those that returned a non-OK status
  /// or a wrong answer.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Digest over every answer, in plan order: equal across runs of a seed.
  uint64_t answer_digest = 0;
};

/// Writes `days` days of generated client events, starting at `first_day`,
/// into `fs` under /logs/<category>/ in the log mover's RCFile v2 hourly
/// layout, recording their ground truth into `truth`.
unilog::Status LandHistory(unilog::hdfs::MiniHdfs* fs,
                           const std::string& category, TimeMs first_day,
                           int days, int users_per_day, uint64_t seed,
                           WarehouseTruth* truth);

/// Runs the plan over every day and hour `truth` covers.
AnalyticsOutcome RunAnalytics(unilog::hdfs::MiniHdfs* fs,
                              const WarehouseTruth& truth,
                              const AnalyticsPlan& plan,
                              unilog::exec::Executor* exec, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_ANALYTICS_H_
