// Unit tests for the discrete-event engine and the lcore actor model.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dhl/sim/lcore.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), nanoseconds(30));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule_after(nanoseconds(100), tick);
  };
  sim.schedule_after(0, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), nanoseconds(400));
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(nanoseconds(10), [&] { ++fired; });
  sim.schedule_at(nanoseconds(50), [&] { ++fired; });
  sim.run_until(nanoseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), nanoseconds(20));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(nanoseconds(100));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), nanoseconds(100));
}

TEST(Simulator, SameTimeEventsRunInTheOrderTheyWereScheduled) {
  Simulator sim;
  std::string order;
  sim.schedule_at(nanoseconds(100), [&] { order += 'a'; });
  sim.schedule_at(nanoseconds(10), [&] {
    sim.schedule_at(nanoseconds(100), [&] { order += 'b'; });
  });
  sim.schedule_at(nanoseconds(20), [&] {
    sim.schedule_at(nanoseconds(100), [&] { order += 'c'; });
  });
  // A keyed insert runs by its key, not by when it was inserted: scheduled
  // "at" 15 ns, it lands between b (sched 10 ns) and c (sched 20 ns).
  std::uint64_t reserved = 0;
  sim.schedule_at(nanoseconds(5), [&] { reserved = sim.reserve_seq(); });
  sim.schedule_at(nanoseconds(50), [&] {
    sim.schedule_keyed({nanoseconds(100), nanoseconds(15), reserved},
                       [&] { order += 'k'; });
  });
  sim.run();
  EXPECT_EQ(order, "abkc");
}

TEST(Simulator, KeyedEventsCannotOrderBeforeTheCursor) {
  Simulator sim;
  sim.schedule_at(nanoseconds(10), [] {});
  sim.run_until(nanoseconds(20));
  EXPECT_THROW(sim.schedule_keyed({nanoseconds(20), nanoseconds(10), 0}, [] {}),
               std::logic_error);
  sim.schedule_keyed({nanoseconds(20), nanoseconds(20), sim.reserve_seq()},
                     [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(nanoseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(nanoseconds(5), [] {}), std::logic_error);
}

TEST(Lcore, ChargesBusyCyclesAndReschedules) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  int iterations = 0;
  core.set_poll([&](Lcore&) -> PollResult {
    ++iterations;
    return {100, false};  // 100 cycles @1 GHz = 100 ns per iteration
  });
  core.start();
  sim.run_until(microseconds(1));
  // ~10 iterations in 1 us.
  EXPECT_GE(iterations, 9);
  EXPECT_LE(iterations, 11);
  EXPECT_GT(core.busy_cycles(), 0.0);
  EXPECT_EQ(core.idle_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(core.utilization(), 1.0);
}

TEST(Lcore, IdleIterationsChargeIdleCost) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  core.set_idle_poll_cycles(50);
  core.set_poll([](Lcore&) -> PollResult { return {0, false}; });
  core.start();
  sim.run_until(microseconds(1));
  EXPECT_EQ(core.busy_cycles(), 0.0);
  EXPECT_GT(core.idle_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(core.utilization(), 0.0);
}

TEST(Lcore, StopHaltsIterations) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  int iterations = 0;
  core.set_poll([&](Lcore&) -> PollResult {
    if (++iterations == 3) core.stop();
    return {10, false};
  });
  core.start();
  sim.run();
  EXPECT_EQ(iterations, 3);
}

TEST(Lcore, ParkAndWake) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  int iterations = 0;
  core.set_poll([&](Lcore&) -> PollResult {
    ++iterations;
    return {10, true};  // park after each iteration
  });
  core.start();
  sim.run();
  EXPECT_EQ(iterations, 1);
  core.wake();
  sim.run();
  EXPECT_EQ(iterations, 2);
}

TEST(Lcore, RestartAfterStopDoesNotDoubleSchedule) {
  Simulator sim;
  Lcore core{sim, "w0", Frequency::gigahertz(1.0), 0};
  int iterations = 0;
  core.set_poll([&](Lcore&) -> PollResult {
    ++iterations;
    return {1000, false};
  });
  core.start();
  sim.run_until(nanoseconds(1500));  // ~2 iterations
  core.stop();
  core.start();
  sim.run_until(nanoseconds(4500));
  // After restart, iterations continue at 1 per us; no duplicated stream.
  EXPECT_LE(iterations, 6);
  EXPECT_GE(iterations, 4);
}

// --- parked idle polls --------------------------------------------------------
//
// A consumer lcore over a work counter: producers add work and wake() it, an
// idle poll parks (until `deadline`, when set).  The spinning twin runs the
// same poll wrapped to clear `park`, so the two must agree on every poll
// that found work and on the busy and idle cycles.

struct Consumer {
  explicit Consumer(bool spinning) {
    core.set_poll([this](Lcore&) -> PollResult {
      if (queue == 0 && sim.now() < deadline) return {0, true, deadline};
      found.emplace_back(sim.now(), queue);
      const int n = queue;
      queue = 0;
      if (sim.now() >= deadline) deadline = kNever;
      return {100.0 + 10.0 * n, false};
    });
    if (spinning) {
      Lcore::PollFn inner = core.poll_fn();
      core.set_poll([inner](Lcore& c) {
        PollResult r = inner(c);
        r.park = false;
        return r;
      });
    }
  }

  /// A producer event at `at`, scheduled by an event at `sched`.
  void produce(Picos sched, Picos at, int n = 1) {
    sim.schedule_at(sched, [this, at, n] {
      sim.schedule_at(at, [this, n] {
        queue += n;
        core.wake();
      });
    });
  }

  Simulator sim;
  // 1 GHz with the default 40-cycle idle poll: a 40 ns idle grid.
  Lcore core{sim, "consumer", Frequency::gigahertz(1.0), 0};
  int queue = 0;
  Picos deadline = kNever;
  std::vector<std::pair<Picos, int>> found;  // (time, work) of busy polls
  std::vector<double> reads;                 // accounting read mid-script
};

/// Run `script` on a parked consumer and on its spinning twin; both must
/// see the same work at the same times and charge the same cycles.
/// Returns the events each executed (parked, spinning).
template <typename Script>
std::pair<std::uint64_t, std::uint64_t> expect_twins_agree(Script script) {
  Consumer parked{false};
  Consumer spinning{true};
  script(parked);
  script(spinning);
  EXPECT_FALSE(parked.found.empty());
  EXPECT_EQ(parked.found, spinning.found);
  EXPECT_EQ(parked.reads, spinning.reads);
  EXPECT_EQ(parked.core.busy_cycles(), spinning.core.busy_cycles());
  EXPECT_EQ(parked.core.idle_cycles(), spinning.core.idle_cycles());
  EXPECT_EQ(parked.core.utilization(), spinning.core.utilization());
  return {parked.sim.executed(), spinning.sim.executed()};
}

TEST(LcorePark, WakeBetweenGridPointsResumesAtTheNextPoll) {
  const auto [parked, spinning] = expect_twins_agree([](Consumer& c) {
    c.core.start();
    c.produce(0, nanoseconds(1234));
    c.produce(nanoseconds(2000), nanoseconds(5017), 3);
    c.sim.run_until(microseconds(20));
  });
  EXPECT_LT(parked * 20, spinning);
}

TEST(LcorePark, WakeOnAGridPointScheduledBeforeThePreviousPoll) {
  // The consumer parks at 0, so its idle polls fall on k * 40 ns.  A
  // producer at 1200 ns scheduled at 0 runs before the 1200 ns poll, which
  // is scheduled at 1160 ns: that poll sees the work.
  expect_twins_agree([](Consumer& c) {
    c.core.start();
    c.produce(0, nanoseconds(1200));
    c.sim.run_until(microseconds(3));
    ASSERT_EQ(c.found.size(), 1u);
    EXPECT_EQ(c.found[0].first, nanoseconds(1200));
  });
}

TEST(LcorePark, WakeOnAGridPointScheduledAfterThePreviousPoll) {
  // Scheduled at 1170 ns, after the 1160 ns poll scheduled the 1200 ns
  // one: that poll runs first and finds nothing, the 1240 ns poll finds it.
  expect_twins_agree([](Consumer& c) {
    c.core.start();
    c.produce(nanoseconds(1170), nanoseconds(1200));
    c.sim.run_until(microseconds(3));
    ASSERT_EQ(c.found.size(), 1u);
    EXPECT_EQ(c.found[0].first, nanoseconds(1240));
  });
}

TEST(LcorePark, TieOnTheFirstParkedPollFollowsTheReservedSeq) {
  // A producer at 40 ns (the first parked poll) scheduled at 0: before the
  // parking poll ran, it wins the tie; after it, it loses.
  expect_twins_agree([](Consumer& c) {
    c.produce(0, nanoseconds(40));
    c.core.start();
    c.sim.run_until(microseconds(1));
    ASSERT_EQ(c.found.size(), 1u);
    EXPECT_EQ(c.found[0].first, nanoseconds(40));
  });
  expect_twins_agree([](Consumer& c) {
    c.core.start();
    c.produce(0, nanoseconds(40));
    c.sim.run_until(microseconds(1));
    ASSERT_EQ(c.found.size(), 1u);
    EXPECT_EQ(c.found[0].first, nanoseconds(80));
  });
}

TEST(LcorePark, WakeAtTimerResumesAtTheFirstPollAtOrAfterTheDeadline) {
  // The consumer parks at 0, so its idle polls fall on k * 40 ns.
  expect_twins_agree([](Consumer& c) {
    c.deadline = nanoseconds(1001);
    c.core.start();
    c.sim.run_until(microseconds(2));
    EXPECT_EQ(c.found, (std::vector<std::pair<Picos, int>>{
                           {nanoseconds(1040), 0}}));
  });
  expect_twins_agree([](Consumer& c) {
    c.deadline = nanoseconds(1000);  // on the grid
    c.core.start();
    c.sim.run_until(microseconds(2));
    EXPECT_EQ(c.found, (std::vector<std::pair<Picos, int>>{
                           {nanoseconds(1000), 0}}));
  });
}

TEST(LcorePark, WakeBeforeTheTimerKeepsItsDeadline) {
  const auto [parked, spinning] = expect_twins_agree([](Consumer& c) {
    c.deadline = microseconds(3);
    c.core.start();
    // Wakes before the timer: found at 1240 ns, after which the core (busy
    // for 110 ns) parks on a grid from 1350 ns with the deadline still set:
    // the timer poll is at 3030 ns.  The producer at 3010 ns wakes it into
    // that same poll.
    c.produce(0, nanoseconds(1234));
    c.produce(0, nanoseconds(3010));
    c.sim.run_until(microseconds(20));
    EXPECT_EQ(c.found, (std::vector<std::pair<Picos, int>>{
                           {nanoseconds(1240), 1}, {nanoseconds(3030), 1}}));
  });
  EXPECT_LT(parked * 20, spinning);
}

TEST(LcorePark, AccountingWhileParkedCreditsThePassedPolls) {
  expect_twins_agree([](Consumer& c) {
    c.core.start();
    c.produce(0, nanoseconds(700));
    c.sim.run_until(nanoseconds(2030));
    c.reads.push_back(c.core.idle_cycles());
    c.reads.push_back(c.core.utilization());
    c.core.reset_accounting();
    c.reads.push_back(c.core.idle_cycles());
    c.produce(nanoseconds(2030), nanoseconds(4444));
    c.sim.run_until(nanoseconds(4000));
    c.reads.push_back(c.core.idle_cycles());
    c.sim.run_until(microseconds(6));
    EXPECT_GT(c.reads[0], 0.0);
    EXPECT_EQ(c.reads[2], 0.0);
  });
}

TEST(LcorePark, StopAndStartWhileParked) {
  expect_twins_agree([](Consumer& c) {
    c.core.start();
    c.produce(0, nanoseconds(300));
    c.sim.run_until(nanoseconds(1010));
    c.core.stop();
    c.produce(nanoseconds(1010), nanoseconds(1500));  // finds a stopped core
    c.sim.run_until(nanoseconds(2015));
    c.core.start();  // the queued work is found at once
    c.sim.run_until(microseconds(4));
    ASSERT_EQ(c.found.size(), 2u);
    EXPECT_EQ(c.found[1].first, nanoseconds(2015));
  });
}

}  // namespace
}  // namespace dhl::sim
