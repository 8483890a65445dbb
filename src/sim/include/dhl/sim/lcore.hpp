#pragma once

// Simulated logical CPU cores ("lcores", in DPDK parlance).
//
// DPDK applications are poll-mode: each lcore runs a tight loop that polls
// rings/NIC queues and processes bursts.  We model an lcore as an actor that
// repeatedly invokes a user poll function; the function reports how many CPU
// cycles that iteration consumed, and the lcore re-schedules itself that many
// cycles later.  Iterations that find no work charge a small idle-poll cost,
// which is what dedicating a core to polling actually costs in DPDK.
//
// Busy vs idle cycles are tracked separately so experiments can report CPU
// utilization per core, mirroring the paper's core-count accounting (Table IV).
//
// Parked idle polls.  A poll that finds no work may *park* the lcore
// (PollResult::park): the lcore stops scheduling idle polls and keeps only
// their arithmetic.  After a parking poll at t_park charging c cycles, idle
// poll k >= 1 would have run at g_k = t_park + cycles(c) + (k-1)*P, with
// P = cycles(idle_poll_cycles), under the simulator key (g_k, g_{k-1}, seq)
// (poll 1: (g_1, t_park, a seq reserved when parking)).  wake() resumes at
// the first poll whose key orders after the waking event, so that poll
// sees the work exactly as a spinning lcore's would; `wake_at` resumes at
// the first g_k >= wake_at.  Each skipped poll's idle cycles are credited
// when it is passed: at wake(), at the wake_at timer, at stop() and
// reset_accounting(), and in reads of idle_cycles()/utilization().
// Virtual time and the cycle accounts are therefore bit-identical to a
// spinning lcore's.  (One tie cannot be decided from the arithmetic: a
// waking event scheduled at exactly g_{k-1} that lands on g_k, k >= 2.  It
// is resolved as "the poll runs after the event".)

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "dhl/common/check.hpp"
#include "dhl/common/units.hpp"
#include "dhl/sim/simulator.hpp"

namespace dhl::sim {

/// A PollResult::wake_at that never arrives.
inline constexpr Picos kNever = std::numeric_limits<Picos>::max();

/// Result of one poll iteration.
struct PollResult {
  /// CPU cycles consumed by this iteration.  0 means "no work found"; the
  /// lcore then charges its idle-poll cost instead.
  double cycles = 0;
  /// If true the lcore parks itself.  The poll promises that it changed
  /// nothing a later poll would see, and that every poll until wake() or
  /// `wake_at` would find nothing and change nothing -- so whoever fills
  /// one of its queues must call wake().
  bool park = false;
  /// A parked lcore resumes by itself at its first idle poll at or after
  /// this time (e.g. the Packer's batch timeout).
  Picos wake_at = kNever;
};

class Lcore {
 public:
  using PollFn = std::function<PollResult(Lcore&)>;

  Lcore(Simulator& simulator, std::string name, Frequency freq, int socket)
      : sim_{simulator}, name_{std::move(name)}, freq_{freq}, socket_{socket} {}

  Lcore(const Lcore&) = delete;
  Lcore& operator=(const Lcore&) = delete;

  const std::string& name() const { return name_; }
  Frequency frequency() const { return freq_; }
  int socket() const { return socket_; }
  Simulator& simulator() { return sim_; }

  void set_poll(PollFn fn) { poll_ = std::move(fn); }
  const PollFn& poll_fn() const { return poll_; }

  /// Cycles charged for an iteration that finds no work.
  void set_idle_poll_cycles(double cycles) { idle_poll_cycles_ = cycles; }

  /// Begin the poll loop.  Requires set_poll() to have been called.
  void start() {
    DHL_CHECK_MSG(static_cast<bool>(poll_), "lcore " << name_ << " has no poll fn");
    if (running_) return;
    running_ = true;
    parked_ = false;
    ++epoch_;  // invalidate any event left over from a previous start/stop
    schedule_next(0);
  }

  void stop() {
    if (parked_) credit_through(polls_passed());
    parked_ = false;
    running_ = false;
    ++epoch_;
  }
  bool running() const { return running_; }

  /// Un-park a parked lcore: resume at the first idle poll that would have
  /// run after the calling event (or after everything run so far).
  void wake() {
    if (!running_ || !parked_) return;
    const std::uint64_t k = first_poll_after(sim_.cursor());
    credit_through(k - 1);
    parked_ = false;
    if (k != resume_k_) resume_at(k);  // else the wake_at timer is that poll
  }

  double busy_cycles() const { return busy_cycles_; }
  double idle_cycles() const {
    if (!parked_) return idle_cycles_;
    return idle_cycles_ + static_cast<double>(polls_passed() - credited_) *
                              idle_poll_cycles_;
  }
  double utilization() const {
    const double total = busy_cycles_ + idle_cycles();
    return total > 0 ? busy_cycles_ / total : 0.0;
  }
  void reset_accounting() {
    if (parked_) credit_through(polls_passed());
    busy_cycles_ = idle_cycles_ = 0;
  }

 private:
  void schedule_next(Picos delay) {
    const std::uint64_t epoch = epoch_;
    sim_.schedule_after(delay, [this, epoch] {
      if (!running_ || parked_ || epoch != epoch_) return;
      iterate();
    });
  }

  void iterate() {
    PollResult r = poll_(*this);
    double cycles = r.cycles;
    if (cycles <= 0) {
      cycles = idle_poll_cycles_;
      idle_cycles_ += cycles;
    } else {
      busy_cycles_ += cycles;
    }
    if (r.park && running_) {
      park(freq_.cycles(cycles), r.wake_at);
      return;
    }
    schedule_next(freq_.cycles(cycles));
  }

  void park(Picos delay, Picos wake_at) {
    period_ = freq_.cycles(idle_poll_cycles_);
    DHL_CHECK_MSG(period_ > 0, "lcore " << name_ << " parks with no idle cost");
    parked_ = true;
    park_time_ = sim_.now();
    grid0_ = park_time_ + delay;
    park_seq_ = sim_.reserve_seq();
    credited_ = 0;
    resume_k_ = 0;
    if (wake_at != kNever) {
      resume_at(wake_at <= grid0_
                    ? 1
                    : (wake_at - grid0_ + period_ - 1) / period_ + 1);
    }
  }

  /// Simulator key of skipped idle poll k >= 1.  Polls k >= 2 would have
  /// been scheduled while poll k-1 ran; their seq compares as "after every
  /// event scheduled so far", the seq a resume gives them.
  Simulator::Key poll_key(std::uint64_t k) const {
    const Picos g = grid0_ + (k - 1) * period_;
    if (k == 1) return {g, park_time_, park_seq_};
    return {g, g - period_, std::numeric_limits<std::uint64_t>::max()};
  }

  std::uint64_t first_poll_after(const Simulator::Key& key) const {
    if (key.time < grid0_) return 1;
    const std::uint64_t k = (key.time - grid0_) / period_ + 1;
    return poll_key(k) > key ? k : k + 1;
  }

  /// Skipped polls that a spinning lcore would have run by now.
  std::uint64_t polls_passed() const {
    return first_poll_after(sim_.cursor()) - 1;
  }

  void credit_through(std::uint64_t k) {
    if (k <= credited_) return;
    idle_cycles_ += static_cast<double>(k - credited_) * idle_poll_cycles_;
    credited_ = k;
  }

  /// Schedule skipped poll k under its own key; it replaces any earlier
  /// resume (the wake_at timer).
  void resume_at(std::uint64_t k) {
    resume_k_ = k;
    Simulator::Key key = poll_key(k);
    if (k > 1) key.seq = sim_.reserve_seq();
    const std::uint64_t epoch = ++epoch_;
    sim_.schedule_keyed(key, [this, epoch] {
      if (!running_ || epoch != epoch_) return;
      credit_through(resume_k_ - 1);
      parked_ = false;
      resume_k_ = 0;
      iterate();
    });
  }

  Simulator& sim_;
  std::string name_;
  Frequency freq_;
  int socket_;
  PollFn poll_;
  double idle_poll_cycles_ = 40;
  double busy_cycles_ = 0;
  double idle_cycles_ = 0;
  bool running_ = false;
  bool parked_ = false;
  std::uint64_t epoch_ = 0;
  // Parked state (see the header comment): the parking poll ran at
  // park_time_ and reserved park_seq_ for poll 1 at grid0_; polls are
  // period_ apart.  Polls 1..credited_ are credited; resume_k_ is the poll
  // a scheduled resume will run (0: none).
  Picos park_time_ = 0;
  Picos grid0_ = 0;
  Picos period_ = 0;
  std::uint64_t park_seq_ = 0;
  std::uint64_t credited_ = 0;
  std::uint64_t resume_k_ = 0;
};

}  // namespace dhl::sim
