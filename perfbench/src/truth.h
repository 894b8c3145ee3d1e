#ifndef PERFBENCH_TRUTH_H_
#define PERFBENCH_TRUTH_H_

// Ground truth the benchmark records while it generates events, and the
// per-event identity key both sides of the landed-exactly-once check use.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "events/client_event.h"
#include "pipeline/daily_pipeline.h"
#include "workload/generator.h"

namespace perfbench {

using unilog::TimeMs;

/// Identity of one client event: user, session, stamp, name and address.
uint64_t EventKey(int64_t user_id, std::string_view session_id,
                  int64_t timestamp, std::string_view event_name,
                  std::string_view ip);
inline uint64_t EventKey(const unilog::events::ClientEvent& ev) {
  return EventKey(ev.user_id, ev.session_id, ev.timestamp, ev.event_name,
                  ev.ip);
}

/// Expected warehouse contents: events by hour of their stamp, event-name
/// counts by hour, and the planted signup funnel by day.
struct WarehouseTruth {
  uint64_t events = 0;
  std::map<TimeMs, uint64_t> hour_events;
  std::map<TimeMs, std::map<std::string, uint64_t>> hour_names;
  std::map<TimeMs, std::vector<uint64_t>> day_funnel;
  /// Every generated user, for the daily job's rollup breakdowns.
  std::vector<std::pair<int64_t, unilog::pipeline::UserTable::Attributes>>
      users;

  void AddEvent(const unilog::events::ClientEvent& ev);
  /// Folds one generator's users, and its funnel truth into day `day`.
  void AddGenerator(const unilog::workload::WorkloadGenerator& generator,
                    TimeMs day);

  /// Adds `other`'s events, users and funnel (disjoint hours).
  void Merge(const WarehouseTruth& other);

  unilog::pipeline::UserTable UserTable() const;
  std::vector<TimeMs> Days() const;
  std::map<std::string, uint64_t> DayNames(TimeMs day) const;
  uint64_t DayEvents(TimeMs day) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRUTH_H_
