#include "dhl/telemetry/flight_recorder.hpp"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fstream>

namespace dhl::telemetry {

std::atomic<bool> FlightRecorder::dump_requested_{false};

const char* to_string(FlightComponent comp) {
  switch (comp) {
    case FlightComponent::kPacker: return "packer";
    case FlightComponent::kDistributor: return "distributor";
    case FlightComponent::kDma: return "dma";
    case FlightComponent::kControl: return "control";
    case FlightComponent::kFault: return "fault";
    case FlightComponent::kSlo: return "slo";
    case FlightComponent::kLedger: return "ledger";
    case FlightComponent::kCount: break;
  }
  return "?";
}

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kBatchFlush: return "batch_flush";
    case FlightEventKind::kDmaRetry: return "dma_retry";
    case FlightEventKind::kRedirect: return "redirect";
    case FlightEventKind::kHealthTransition: return "health_transition";
    case FlightEventKind::kFaultInjected: return "fault_injected";
    case FlightEventKind::kDrop: return "drop";
    case FlightEventKind::kCrcDrop: return "crc_drop";
    case FlightEventKind::kAuditFail: return "audit_fail";
    case FlightEventKind::kSloBreach: return "slo_breach";
    case FlightEventKind::kSloRecover: return "slo_recover";
    case FlightEventKind::kDumpRequested: return "dump_requested";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t per_component_capacity) {
  if (per_component_capacity == 0) per_component_capacity = 1;
  // Round up to a power of two so the hot-path slot index is a mask, not a
  // division.
  std::size_t cap = 1;
  while (cap < per_component_capacity) cap <<= 1;
  for (auto& ring : rings_) {
    ring.buf.resize(cap);
    ring.mask = cap - 1;
  }
}

void FlightRecorder::log(FlightComponent comp, Picos at, FlightEventKind kind,
                         std::string_view tag, std::int16_t a, std::int32_t b,
                         std::uint64_t c) {
  if (!enabled_) return;
  Ring& ring = rings_[static_cast<std::size_t>(comp)];
  FlightEvent& slot = ring.buf[ring.written & ring.mask];
  slot.at = at;
  slot.seq = seq_++;
  slot.kind = kind;
  slot.comp = comp;
  slot.a = a;
  slot.b = b;
  slot.c = c;
  const std::size_t n = std::min(tag.size(), sizeof(slot.tag) - 1);
  // An empty view may carry a null data(), which memcpy must never see.
  if (n > 0) std::memcpy(slot.tag, tag.data(), n);
  slot.tag[n] = '\0';
  ring.written++;

  if (kind == FlightEventKind::kFaultInjected) note_fault(at);
}

std::vector<FlightEvent> FlightRecorder::recent(std::size_t max_events) const {
  std::vector<FlightEvent> out;
  for (const Ring& ring : rings_) {
    const std::size_t held = std::min<std::uint64_t>(ring.written, ring.buf.size());
    const std::size_t start = (ring.written - held) & ring.mask;
    for (std::size_t i = 0; i < held; ++i) {
      out.push_back(ring.buf[(start + i) & ring.mask]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) { return x.seq < y.seq; });
  if (max_events > 0 && out.size() > max_events) {
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return out;
}

void FlightRecorder::set_fault_storm_threshold(std::uint32_t threshold,
                                               Picos window) {
  storm_threshold_ = threshold;
  storm_window_ = window;
  recent_faults_.assign(threshold, kNever);
  fault_cursor_ = 0;
  storm_tripped_ = false;
}

void FlightRecorder::note_fault(Picos at) {
  if (storm_threshold_ == 0) return;
  recent_faults_[fault_cursor_] = at;
  fault_cursor_ = (fault_cursor_ + 1) % recent_faults_.size();
  // After the write, fault_cursor_ points at the oldest retained fault.
  const Picos oldest = recent_faults_[fault_cursor_];
  if (oldest == kNever) return;  // ring not full yet
  if (at - oldest <= storm_window_) {
    storm_tripped_ = true;
    // Cooldown: at most one storm dump per window of virtual time.
    if (last_auto_dump_ == kNever || at - last_auto_dump_ > storm_window_) {
      last_auto_dump_ = at;
      log(FlightComponent::kFault, at, FlightEventKind::kDumpRequested,
          "fault_storm", 0, static_cast<std::int32_t>(storm_threshold_),
          static_cast<std::uint64_t>(storm_window_));
      dump_auto("fault_storm");
    }
  }
}

void FlightRecorder::install_signal_handler() {
#ifdef SIGUSR1
  struct sigaction sa = {};
  sa.sa_handler = [](int) { FlightRecorder::request_dump(); };
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &sa, nullptr);
#endif
}

std::string FlightRecorder::poll_triggers(Picos now) {
  if (!consume_dump_request()) return {};
  log(FlightComponent::kControl, now, FlightEventKind::kDumpRequested, "signal");
  return dump_auto("dump_requested");
}

std::string FlightRecorder::dump_auto(std::string_view reason) {
  if (auto_dump_path_.empty()) return {};
  // Distinguish successive dumps: first one keeps the configured name.
  std::string path = auto_dump_path_;
  if (dumps_written_ > 0) {
    const std::size_t dot = path.rfind('.');
    std::string n = std::to_string(dumps_written_);
    n.insert(n.begin(), '.');
    if (dot == std::string::npos) {
      path += n;
    } else {
      path.insert(dot, n);
    }
  }
  // `at` of the dump is the newest event's timestamp (dumps run on the sim
  // thread, so this is "now" as far as the recorder can tell).
  Picos at = 0;
  for (const Ring& ring : rings_) {
    if (ring.written > 0) {
      const FlightEvent& last = ring.buf[(ring.written - 1) & ring.mask];
      if (last.at > at) at = last.at;
    }
  }
  if (!dump_to_file(path, reason, at)) return {};
  dumps_written_++;
  return path;
}

namespace {

void write_escaped(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

}  // namespace

void FlightRecorder::write_json(std::ostream& os, std::string_view reason,
                                Picos at) const {
  os << "{\n  \"reason\": \"";
  write_escaped(os, std::string(reason).c_str());
  os << "\",\n  \"at_ps\": " << at
     << ",\n  \"total_logged\": " << seq_
     << ",\n  \"storm_tripped\": " << (storm_tripped_ ? "true" : "false")
     << ",\n  \"events\": [\n";
  const std::vector<FlightEvent> events = recent();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    os << "    {\"seq\": " << e.seq << ", \"at_ps\": " << e.at
       << ", \"component\": \"" << to_string(e.comp) << "\", \"kind\": \""
       << to_string(e.kind) << "\", \"tag\": \"";
    write_escaped(os, e.tag);
    os << "\", \"a\": " << e.a << ", \"b\": " << e.b << ", \"c\": " << e.c
       << "}";
    if (i + 1 < events.size()) os << ",";
    os << "\n";
  }
  os << "  ]\n}\n";
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  std::string_view reason, Picos at) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f, reason, at);
  return f.good();
}

}  // namespace dhl::telemetry
