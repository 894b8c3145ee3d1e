#include "truth.h"

#include <cstring>
#include <set>

#include "ledger.h"

namespace perfbench {

uint64_t EventKey(int64_t user_id, std::string_view session_id,
                  int64_t timestamp, std::string_view event_name,
                  std::string_view ip) {
  std::string buf;
  buf.reserve(24 + session_id.size() + event_name.size() + ip.size());
  char ints[16];
  std::memcpy(ints, &user_id, 8);
  std::memcpy(ints + 8, &timestamp, 8);
  buf.append(ints, sizeof(ints));
  buf.append(session_id);
  buf.push_back('\0');
  buf.append(event_name);
  buf.push_back('\0');
  buf.append(ip);
  return Fnv1a(buf);
}

void WarehouseTruth::AddEvent(const unilog::events::ClientEvent& ev) {
  TimeMs hour = unilog::TruncateToHour(ev.timestamp);
  ++events;
  ++hour_events[hour];
  ++hour_names[hour][ev.event_name];
}

void WarehouseTruth::AddGenerator(
    const unilog::workload::WorkloadGenerator& generator, TimeMs day) {
  for (const auto& user : generator.users()) {
    users.push_back({user.user_id, {user.country, user.logged_in}});
  }
  const unilog::workload::GroundTruth& truth = generator.truth();
  std::vector<uint64_t>& funnel = day_funnel[day];
  if (funnel.size() < truth.funnel_stage_sessions.size()) {
    funnel.resize(truth.funnel_stage_sessions.size(), 0);
  }
  for (size_t i = 0; i < truth.funnel_stage_sessions.size(); ++i) {
    funnel[i] += truth.funnel_stage_sessions[i];
  }
}

void WarehouseTruth::Merge(const WarehouseTruth& other) {
  events += other.events;
  for (const auto& [hour, count] : other.hour_events) {
    hour_events[hour] += count;
  }
  for (const auto& [hour, names] : other.hour_names) {
    for (const auto& [name, count] : names) hour_names[hour][name] += count;
  }
  for (const auto& [day, funnel] : other.day_funnel) {
    std::vector<uint64_t>& mine = day_funnel[day];
    if (mine.size() < funnel.size()) mine.resize(funnel.size(), 0);
    for (size_t i = 0; i < funnel.size(); ++i) mine[i] += funnel[i];
  }
  users.insert(users.end(), other.users.begin(), other.users.end());
}

unilog::pipeline::UserTable WarehouseTruth::UserTable() const {
  unilog::pipeline::UserTable table;
  for (const auto& [id, attributes] : users) table.Add(id, attributes);
  return table;
}

std::vector<TimeMs> WarehouseTruth::Days() const {
  std::set<TimeMs> days;
  for (const auto& [hour, count] : hour_events) {
    days.insert(unilog::TruncateToDay(hour));
  }
  return {days.begin(), days.end()};
}

std::map<std::string, uint64_t> WarehouseTruth::DayNames(TimeMs day) const {
  std::map<std::string, uint64_t> out;
  for (auto it = hour_names.lower_bound(day);
       it != hour_names.end() && it->first < day + unilog::kMillisPerDay;
       ++it) {
    for (const auto& [name, count] : it->second) out[name] += count;
  }
  return out;
}

uint64_t WarehouseTruth::DayEvents(TimeMs day) const {
  uint64_t total = 0;
  for (auto it = hour_events.lower_bound(day);
       it != hour_events.end() && it->first < day + unilog::kMillisPerDay;
       ++it) {
    total += it->second;
  }
  return total;
}

}  // namespace perfbench
