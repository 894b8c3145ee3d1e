#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace unilog {

Simulator::GridSubscription& Simulator::GridSubscription::operator=(
    GridSubscription&& other) noexcept {
  if (this != &other) {
    Reset();
    grid_ = std::move(other.grid_);
    id_ = other.id_;
  }
  return *this;
}

void Simulator::GridSubscription::Reset() {
  if (grid_ == nullptr) return;
  grid_->Remove(id_);
  grid_.reset();
}

void Simulator::Grid::Remove(uint64_t id) {
  auto it = std::lower_bound(
      subscribers.begin(), subscribers.end(), id,
      [](const Subscriber& s, uint64_t v) { return s.id < v; });
  if (it != subscribers.end() && it->id == id) it->live = false;
}

void Simulator::At(TimeMs t, Callback cb) {
  if (t < now_) t = now_;
  queue_.push(Event{t, next_seq_++, std::move(cb)});
}

Simulator::GridSubscription Simulator::JoinGrid(TimeMs interval,
                                                Callback cb) {
  interval = std::max<TimeMs>(1, interval);
  std::shared_ptr<Grid>& grid = grids_[{now_, interval}];
  if (grid == nullptr) {
    grid = std::make_shared<Grid>();
    grid->start = now_;
    grid->interval = interval;
    ArmGrid(grid.get(), now_ + interval);
  }
  const uint64_t id = grid->next_id++;
  grid->subscribers.push_back(Grid::Subscriber{id, true, std::move(cb)});
  return GridSubscription(grid, id);
}

void Simulator::ArmGrid(Grid* grid, TimeMs t) {
  At(t, [this, grid]() { TickGrid(grid); });
}

void Simulator::TickGrid(Grid* grid) {
  // No subscriber joins a grid after its start instant, so the vector
  // does not grow while it is walked.
  for (size_t i = 0; i < grid->subscribers.size(); ++i) {
    if (grid->subscribers[i].live) grid->subscribers[i].cb();
  }
  std::erase_if(grid->subscribers,
                [](const Grid::Subscriber& s) { return !s.live; });
  if (grid->subscribers.empty()) {
    grids_.erase({grid->start, grid->interval});  // may destroy `grid`
    return;
  }
  ArmGrid(grid, now_ + grid->interval);
}

void Simulator::PopAndRun() {
  // priority_queue::top() returns const&; the callback must be moved out
  // before pop, so copy the frame via const_cast-free extraction.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ++events_processed_;
  ev.cb();
}

void Simulator::Run() {
  while (!queue_.empty()) PopAndRun();
}

void Simulator::RunUntil(TimeMs t) {
  while (!queue_.empty() && queue_.top().time <= t) PopAndRun();
  if (now_ < t) now_ = t;
}

void Simulator::Step(uint64_t n) {
  while (n-- > 0 && !queue_.empty()) PopAndRun();
}

}  // namespace unilog
