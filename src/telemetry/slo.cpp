#include "dhl/telemetry/slo.hpp"

#include <algorithm>
#include <sstream>

#include "dhl/telemetry/drop_site.hpp"
#include "dhl/telemetry/flight_recorder.hpp"

namespace dhl::telemetry {

void SloWatchdog::add_slo(SloSpec spec) {
  SloVerdict v;
  v.spec = std::move(spec);
  verdicts_.push_back(std::move(v));
  states_.emplace_back();
}

void SloWatchdog::set_hysteresis(std::uint32_t enter_after,
                                 std::uint32_t exit_after) {
  enter_after_ = std::max(1u, enter_after);
  exit_after_ = std::max(1u, exit_after);
}

const sim::LatencyHistogram* SloWatchdog::cumulative_hist(
    const SloSpec& spec) const {
  // The aggregate / tenant views are merge-at-read scratch references;
  // evaluate() copies or diffs them before the next cumulative_hist call,
  // which is what keeps borrowing them here sound.
  if (!spec.tenant.empty()) return &stages_.e2e_tenant(spec.tenant);
  if (spec.nf == "*") return &stages_.stage(Stage::kEndToEnd);
  const std::size_t id = stages_.nf_id_by_name(spec.nf);
  if (id >= StageLatencyRecorder::kMaxNfs) return nullptr;
  return stages_.e2e(static_cast<std::uint8_t>(id));
}

double SloWatchdog::cumulative_drops(const SloSpec& spec,
                                     const MetricsSnapshot& snap) const {
  if (!spec.tenant.empty()) {
    // Every terminal drop is counted against its tenant (quota drops
    // included); admission rejections are back-pressure, not drops.
    return snap.sum("dhl.tenant.dropped_pkts", {{"tenant", spec.tenant}});
  }
  // Every site a packet can die at between IBQ admission and OBQ delivery.
  if (spec.nf == "*") return total_drops(snap);
  return snap.sum("dhl.nf.obq_drops", {{"nf", spec.nf}});
}

void SloWatchdog::evaluate(Picos now, const MetricsSnapshot& snap) {
  evaluations_++;
  for (std::size_t i = 0; i < verdicts_.size(); ++i) {
    SloVerdict& v = verdicts_[i];
    State& st = states_[i];

    const sim::LatencyHistogram* cum = cumulative_hist(v.spec);
    const double drops_now = cumulative_drops(v.spec, snap);

    if (cum == nullptr) {
      // NF not resolved yet (nothing delivered): state unchanged, but track
      // drops so the first real window does not inherit startup losses.
      st.prev_drops = drops_now;
      continue;
    }
    if (!st.have_baseline) {
      st.baseline = *cum;
      st.have_baseline = true;
      st.prev_drops = drops_now;
      continue;
    }

    const sim::LatencyHistogram window = cum->diff_since(st.baseline);
    const double window_drops = std::max(0.0, drops_now - st.prev_drops);
    st.baseline = *cum;
    st.prev_drops = drops_now;

    // Delivered count in the window: every delivered packet records one e2e
    // sample, so the histogram diff *is* the delivery count.
    const double window_delivered = static_cast<double>(window.count());
    if (window_delivered + window_drops <= 0.0) continue;  // empty window

    v.window_count = window.count();
    v.window_p99 = static_cast<Picos>(window.percentile(0.99));
    v.window_p999 = static_cast<Picos>(window.percentile(0.999));
    v.window_drop_rate = window_drops / (window_delivered + window_drops);

    // Strict '>' everywhere: exactly-at-budget is within budget.
    std::string detail;
    if (v.spec.p99_ceiling > 0 && v.window_p99 > v.spec.p99_ceiling) {
      detail = "p99 " + std::to_string(v.window_p99) + " > " +
               std::to_string(v.spec.p99_ceiling);
    } else if (v.spec.p999_ceiling > 0 && v.window_p999 > v.spec.p999_ceiling) {
      detail = "p999 " + std::to_string(v.window_p999) + " > " +
               std::to_string(v.spec.p999_ceiling);
    } else if (v.spec.drop_rate_budget >= 0 &&
               v.window_drop_rate > v.spec.drop_rate_budget) {
      detail = "drop_rate " + std::to_string(v.window_drop_rate) + " > " +
               std::to_string(v.spec.drop_rate_budget);
    }

    v.window_violation = !detail.empty();
    if (v.window_violation) {
      v.detail = detail;
      v.violating_windows++;
      st.violation_streak++;
      st.clean_streak = 0;
      if (!v.breached && st.violation_streak >= enter_after_) {
        v.breached = true;
        v.breach_episodes++;
        if (recorder_ != nullptr) {
          const std::string& who =
              v.spec.tenant.empty() ? v.spec.nf : v.spec.tenant;
          recorder_->log(FlightComponent::kSlo, now,
                         FlightEventKind::kSloBreach, who,
                         static_cast<std::int16_t>(i),
                         static_cast<std::int32_t>(v.violating_windows),
                         static_cast<std::uint64_t>(v.window_p99));
          recorder_->dump_auto("slo_breach:" + who);
        }
      }
    } else {
      st.clean_streak++;
      st.violation_streak = 0;
      if (v.breached && st.clean_streak >= exit_after_) {
        v.breached = false;
        v.detail.clear();
        if (recorder_ != nullptr) {
          recorder_->log(FlightComponent::kSlo, now,
                         FlightEventKind::kSloRecover,
                         v.spec.tenant.empty() ? v.spec.nf : v.spec.tenant,
                         static_cast<std::int16_t>(i), 0,
                         static_cast<std::uint64_t>(v.window_p99));
        }
      }
    }
  }
}

bool SloWatchdog::any_breached() const {
  for (const SloVerdict& v : verdicts_) {
    if (v.breached) return true;
  }
  return false;
}

void SloWatchdog::write_verdicts_json(std::ostream& os) const {
  os << "[";
  for (std::size_t i = 0; i < verdicts_.size(); ++i) {
    const SloVerdict& v = verdicts_[i];
    if (i > 0) os << ", ";
    os << "{\"nf\": \"" << v.spec.nf << "\""
       << ", \"tenant\": \"" << v.spec.tenant << "\""
       << ", \"breached\": " << (v.breached ? "true" : "false")
       << ", \"window_violation\": " << (v.window_violation ? "true" : "false")
       << ", \"violating_windows\": " << v.violating_windows
       << ", \"breach_episodes\": " << v.breach_episodes
       << ", \"window_count\": " << v.window_count
       << ", \"window_p99_ps\": " << v.window_p99
       << ", \"window_p999_ps\": " << v.window_p999
       << ", \"window_drop_rate\": " << v.window_drop_rate
       << ", \"p99_ceiling_ps\": " << v.spec.p99_ceiling
       << ", \"p999_ceiling_ps\": " << v.spec.p999_ceiling
       << ", \"drop_rate_budget\": " << v.spec.drop_rate_budget
       << ", \"detail\": \"" << v.detail << "\"}";
  }
  os << "]";
}

std::string SloWatchdog::verdicts_json() const {
  std::ostringstream os;
  write_verdicts_json(os);
  return os.str();
}

void SloWatchdog::write_drop_sites_json(std::ostream& os,
                                        const MetricsSnapshot& snap) {
  // NIC drops (before admission), the runtime's drop sites, then the
  // per-tenant totals and admission rejections (back-pressure, not drops,
  // but a scenario reader wants both in one place).
  const char* sep = "";
  const auto field = [&](const char* family) {
    os << sep << "\"" << family << "\": "
       << static_cast<std::uint64_t>(snap.sum(family));
    sep = ", ";
  };
  os << "{";
  field("dhl.nic.rx_drops");
  for (const DropSiteInfo& s : kDropSites) field(s.counter);
  field("dhl.tenant.dropped_pkts");
  field("dhl.tenant.rejected_pkts");
  field("dhl.fallback.pkts");
  os << "}";
}

}  // namespace dhl::telemetry
