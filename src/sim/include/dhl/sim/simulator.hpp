#pragma once

// Discrete-event simulation engine.
//
// All DHL experiments run in virtual time: components schedule callbacks at
// picosecond timestamps, and the engine executes them in (time, sched, seq)
// order: `sched` is now() when the event was scheduled and `seq` an insertion
// sequence.  Both only grow as events run, so for events scheduled the
// ordinary way this is exactly (time, insertion sequence) order; the middle
// field exists so a parked lcore (lcore.hpp) can insert an idle poll it
// skipped under the key that poll would have had.  The total order makes
// runs bit-for-bit reproducible regardless of heap implementation details.
//
// The engine is deliberately single-threaded: determinism is worth more to a
// reproduction study than parallel speedup, and the hot loops (per-burst
// packet processing) amortize the event overhead.

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "dhl/common/check.hpp"
#include "dhl/common/units.hpp"

namespace dhl::sim {

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// An event's place in the run order.
  struct Key {
    Picos time = 0;
    Picos sched = 0;  // now() when the event was scheduled
    std::uint64_t seq = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Picos now() const { return now_; }

  /// Schedule `cb` to run at absolute time `t` (must be >= now()).
  void schedule_at(Picos t, Callback cb) {
    DHL_CHECK_MSG(t >= now_, "cannot schedule event in the past");
    queue_.push(Event{Key{t, now_, next_seq_++}, std::move(cb)});
  }

  /// Take an insertion sequence number now, for an event keyed later.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `cb` under an explicit key, which must order after cursor().
  void schedule_keyed(Key key, Callback cb) {
    DHL_CHECK_MSG(key.time >= now_ && key > cursor_,
                  "cannot schedule event in the past");
    queue_.push(Event{key, std::move(cb)});
  }

  /// Key of the running event; between events, a key that orders after
  /// every event run so far and before every event still to run.
  const Key& cursor() const { return cursor_; }

  /// Schedule `cb` to run `dt` after the current time.
  void schedule_after(Picos dt, Callback cb) {
    schedule_at(now_ + dt, std::move(cb));
  }

  /// Execute a single event.  Returns false if the queue is empty.
  bool step() {
    if (queue_.empty()) return false;
    // priority_queue::top returns const&; the callback must be moved out
    // before pop, so copy the POD fields and steal the callback.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.key.time;
    cursor_ = ev.key;
    ++executed_;
    ev.callback();
    return true;
  }

  /// Run until the queue is empty.
  void run() {
    while (step()) {
    }
  }

  /// Run all events with time <= `t`, then set now() to `t`.
  void run_until(Picos t) {
    while (!queue_.empty() && queue_.top().key.time <= t) step();
    if (t > now_) now_ = t;
    // Every event at or before `t` has run.  An event scheduled at `t` from
    // here on has sched == t, so (t, t, 0) sits between the two.
    cursor_ = std::max(cursor_, Key{t, t, 0});
  }

  std::size_t pending() const { return queue_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    Key key;
    Callback callback;
    bool operator>(const Event& o) const { return key > o.key; }
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  Picos now_ = 0;
  Key cursor_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dhl::sim
