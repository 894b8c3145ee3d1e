#ifndef UNILOG_SIM_SIMULATOR_H_
#define UNILOG_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace unilog {

/// A deterministic single-threaded discrete-event simulator. Components of
/// the delivery infrastructure (Scribe daemons, aggregators, the log mover,
/// ZooKeeper sessions) schedule callbacks on a shared virtual clock; the
/// simulator executes them in (time, insertion-order) order, so a given
/// seed always produces the exact same run.
class Simulator {
  struct Grid;

 public:
  using Callback = std::function<void()>;

  /// Membership in a shared periodic timer (see JoinGrid). Destroying or
  /// resetting it unsubscribes; it may outlive the simulator.
  class GridSubscription {
   public:
    GridSubscription() = default;
    ~GridSubscription() { Reset(); }
    GridSubscription(GridSubscription&& other) noexcept = default;
    GridSubscription& operator=(GridSubscription&& other) noexcept;
    GridSubscription(const GridSubscription&) = delete;
    GridSubscription& operator=(const GridSubscription&) = delete;

    /// Unsubscribes; the callback never runs again.
    void Reset();
    explicit operator bool() const { return grid_ != nullptr; }

   private:
    friend class Simulator;
    GridSubscription(std::shared_ptr<Grid> grid, uint64_t id)
        : grid_(std::move(grid)), id_(id) {}

    std::shared_ptr<Grid> grid_;
    uint64_t id_ = 0;
  };

  explicit Simulator(TimeMs start_time = 0)
      : now_(start_time) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimeMs Now() const { return now_; }

  /// Schedules `cb` at absolute virtual time `t`. Times in the past are
  /// clamped to Now() (the callback runs next).
  void At(TimeMs t, Callback cb);

  /// Schedules `cb` after `delay` milliseconds of virtual time.
  void After(TimeMs delay, Callback cb) { At(now_ + delay, std::move(cb)); }

  /// Subscribes `cb` to the shared timer that ticks at Now() + k·interval
  /// (k ≥ 1; intervals below 1 ms count as 1 ms) for as long as the
  /// returned subscription lives. All subscribers that join at the same
  /// instant with the same interval share one grid, which keeps exactly
  /// one queued event per tick however many subscribers it has, and calls
  /// them in subscription order. The next tick is queued after the last
  /// subscriber returns — the position each subscriber's own re-armed
  /// timer would take if nothing it runs schedules an event exactly one
  /// interval ahead. A grid whose subscribers are all gone stops at its
  /// next tick.
  [[nodiscard]] GridSubscription JoinGrid(TimeMs interval, Callback cb);

  /// Runs until the event queue is empty.
  void Run();

  /// Runs events with time <= `t`, then advances the clock to `t`.
  void RunUntil(TimeMs t);

  /// Executes at most `n` more events.
  void Step(uint64_t n = 1);

  size_t PendingEvents() const { return queue_.size(); }
  uint64_t EventsProcessed() const { return events_processed_; }

 private:
  struct Event {
    TimeMs time;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    Callback cb;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  /// A shared periodic timer. Subscribers are kept in join order (ids
  /// increase). One that leaves is only marked dead and dropped at the
  /// next tick, so a callback that unsubscribes is never destroyed while
  /// it runs, and a fleet's teardown costs no vector shifting.
  struct Grid {
    struct Subscriber {
      uint64_t id;
      bool live;
      Callback cb;
    };
    TimeMs start;
    TimeMs interval;
    std::vector<Subscriber> subscribers;
    uint64_t next_id = 1;

    void Remove(uint64_t id);
  };

  void PopAndRun();
  void ArmGrid(Grid* grid, TimeMs t);
  void TickGrid(Grid* grid);

  TimeMs now_;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  // Live grids by (start instant, interval). A grid stays here while its
  // tick is queued, so subscribers joining later at its start instant
  // share it.
  std::map<std::pair<TimeMs, TimeMs>, std::shared_ptr<Grid>> grids_;
};

}  // namespace unilog

#endif  // UNILOG_SIM_SIMULATOR_H_
