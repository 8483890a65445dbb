#include "dhl/runtime/ledger.hpp"

#include <sstream>

#include "dhl/common/log.hpp"

namespace dhl::runtime {

const char* to_string(LedgerStage stage) {
  switch (stage) {
    case LedgerStage::kNicRx:
      return "nic.rx";
    case LedgerStage::kIbq:
      return "ibq";
    case LedgerStage::kPackerAppend:
      return "packer.append";
    case LedgerStage::kFallback:
      return "fallback";
    case LedgerStage::kDmaTx:
      return "dma.tx";
    case LedgerStage::kFpga:
      return "fpga";
    case LedgerStage::kDmaRx:
      return "dma.rx";
    case LedgerStage::kDistributor:
      return "distributor";
    case LedgerStage::kObq:
      return "obq";
    case LedgerStage::kNf:
      return "nf";
    case LedgerStage::kCount:
      break;
  }
  return "unknown";
}

std::uint64_t LedgerAudit::dropped_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t d : dropped) total += d;
  return total;
}

bool LedgerAudit::clean() const {
  return live == 0 && double_track == 0 && double_terminal == 0 &&
         premature_release == 0 && orphan_terminal == 0 &&
         tracked == delivered + dropped_total();
}

std::string LedgerAudit::to_string() const {
  std::ostringstream out;
  out << "ledger audit: tracked=" << tracked << " delivered=" << delivered
      << " dropped=" << dropped_total() << " live=" << live << '\n';
  out << "  drops:";
  for (std::size_t i = 0; i < telemetry::kDropSites.size(); ++i) {
    out << ' ' << telemetry::kDropSites[i].name << '=' << dropped[i];
  }
  out << '\n';
  out << "  violations: double_track=" << double_track
      << " double_terminal=" << double_terminal
      << " premature_release=" << premature_release
      << " orphan_terminal=" << orphan_terminal << '\n';
  out << "  stages:";
  for (std::size_t i = 0; i < static_cast<std::size_t>(LedgerStage::kCount);
       ++i) {
    out << ' ' << runtime::to_string(static_cast<LedgerStage>(i)) << '='
        << stage_entries[i];
  }
  if (!leaks.empty()) {
    out << "\n  leaks (" << live << " live, showing " << leaks.size() << "):";
    for (const LedgerAudit::Leak& leak : leaks) {
      out << " [" << leak.mbuf << " @ " << runtime::to_string(leak.stage)
          << ']';
    }
  }
  return out.str();
}

#if DHL_LEDGER

LifecycleLedger::LifecycleLedger(telemetry::Telemetry& telemetry) {
  if (netio::mbuf_observer() == nullptr) {
    netio::set_mbuf_observer(this);
    installed_ = true;
  } else {
    DHL_WARN("ledger",
             "mbuf release observer already installed (another runtime's "
             "ledger is live); premature-release detection disabled here");
  }
  tracked_counter_ = telemetry.metrics.counter("dhl.ledger.tracked");
  delivered_counter_ = telemetry.metrics.counter("dhl.ledger.delivered");
  violation_counter_ = telemetry.metrics.counter("dhl.ledger.violations");
  live_gauge_ = telemetry.metrics.gauge("dhl.ledger.live");
}

LifecycleLedger::~LifecycleLedger() {
  if (installed_ && netio::mbuf_observer() == this) {
    netio::set_mbuf_observer(nullptr);
  }
}

void LifecycleLedger::on_ingress(const netio::Mbuf* m) {
  if (m == nullptr) return;
  auto [it, inserted] = records_.try_emplace(m);
  if (!inserted) {
    if (!it->second.closed) {
      // Still in flight and entering again: duplication the audit must see.
      ++double_track_;
      violation_counter_->add(1);
      --open_;  // the old lifecycle is overwritten, not leaked twice
    } else {
      // Closed lifecycle re-entering the IBQ: a chained NF re-sent the
      // packet.  The old lifecycle ended at the NF; open a fresh one.
      ++stage_entries_[static_cast<std::size_t>(LedgerStage::kNf)];
    }
    it->second = Record{};
  }
  ++tracked_;
  ++open_;
  tracked_counter_->add(1);
  if (m->rx_timestamp() != netio::kNoRxTimestamp) {
    ++stage_entries_[static_cast<std::size_t>(LedgerStage::kNicRx)];
  }
  ++stage_entries_[static_cast<std::size_t>(LedgerStage::kIbq)];
  live_gauge_->set(static_cast<double>(open_));
}

void LifecycleLedger::on_stage(const netio::Mbuf* m, LedgerStage stage) {
  if (m == nullptr) return;
  const auto it = records_.find(m);
  if (it == records_.end() || it->second.closed) return;
  if (it->second.stage == stage) return;  // idempotent (e.g. DMA retries)
  it->second.stage = stage;
  ++stage_entries_[static_cast<std::size_t>(stage)];
}

void LifecycleLedger::on_batch_stage(const fpga::DmaBatch& batch,
                                     LedgerStage stage) {
  for (const netio::Mbuf* m : batch.pkts()) on_stage(m, stage);
}

LifecycleLedger::Record* LifecycleLedger::terminal_record(
    const netio::Mbuf* m) {
  const auto it = records_.find(m);
  if (it == records_.end()) {
    ++orphan_terminal_;
    violation_counter_->add(1);
    return nullptr;
  }
  if (it->second.closed) {
    ++double_terminal_;
    violation_counter_->add(1);
    return nullptr;
  }
  return &it->second;
}

void LifecycleLedger::on_delivered(const netio::Mbuf* m) {
  if (m == nullptr) return;
  Record* r = terminal_record(m);
  if (r == nullptr) return;
  r->closed = true;
  r->stage = LedgerStage::kObq;
  ++stage_entries_[static_cast<std::size_t>(LedgerStage::kObq)];
  ++delivered_;
  --open_;
  delivered_counter_->add(1);
  live_gauge_->set(static_cast<double>(open_));
}

void LifecycleLedger::on_drop(const netio::Mbuf* m, DropSite site) {
  if (m == nullptr) return;
  if (terminal_record(m) == nullptr) return;
  // Dropped packets return to the pool right away; the record is done.
  records_.erase(m);
  ++dropped_[static_cast<std::size_t>(site)];
  --open_;
  live_gauge_->set(static_cast<double>(open_));
}

void LifecycleLedger::on_mbuf_release(netio::Mbuf& mbuf, bool last_ref) {
  if (!last_ref) return;
  const auto it = records_.find(&mbuf);
  if (it == records_.end()) return;  // not a runtime-tracked packet
  if (!it->second.closed) {
    // Freed while the ledger still has it in flight and no drop site
    // claimed it: exactly the class of bug the ledger exists to catch.
    ++premature_release_;
    --open_;
    violation_counter_->add(1);
    live_gauge_->set(static_cast<double>(open_));
    DHL_WARN("ledger", "premature release of tracked mbuf at stage "
                           << runtime::to_string(it->second.stage));
  } else {
    // Normal end of life: the NF consumed a delivered packet.
    ++stage_entries_[static_cast<std::size_t>(LedgerStage::kNf)];
  }
  // Either way the pointer may be recycled by the pool; forget it so a
  // fresh allocation can be tracked as a new lifecycle.
  records_.erase(it);
}

LedgerAudit LifecycleLedger::audit() const {
  LedgerAudit out;
  out.tracked = tracked_;
  out.delivered = delivered_;
  for (std::size_t i = 0; i < telemetry::kDropSites.size(); ++i) {
    out.dropped[i] = dropped_[i];
  }
  out.double_track = double_track_;
  out.double_terminal = double_terminal_;
  out.premature_release = premature_release_;
  out.orphan_terminal = orphan_terminal_;
  for (std::size_t i = 0; i < static_cast<std::size_t>(LedgerStage::kCount);
       ++i) {
    out.stage_entries[i] = stage_entries_[i];
  }
  constexpr std::size_t kMaxLeakSamples = 16;
  for (const auto& [m, r] : records_) {
    if (r.closed) continue;
    ++out.live;
    if (out.leaks.size() < kMaxLeakSamples) {
      out.leaks.push_back({m, r.stage});
    }
  }
  return out;
}

#endif  // DHL_LEDGER

}  // namespace dhl::runtime
