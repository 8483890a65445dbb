#include "dhl/telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "dhl/common/check.hpp"

namespace dhl::telemetry {

namespace {

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

/// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string prometheus_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += prometheus_name(k);
    out += "=\"";
    out += v;
    out += '"';
  }
  out += '}';
  return out;
}

void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void json_number(std::ostream& os, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.0e15) {
    os << static_cast<long long>(v);
  } else {
    os << v;
  }
}

}  // namespace

const MetricSample* MetricsSnapshot::find(std::string_view name,
                                          const Labels& labels) const {
  for (const MetricSample& s : samples) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& want : labels) {
      if (std::find(s.labels.begin(), s.labels.end(), want) ==
          s.labels.end()) {
        match = false;
        break;
      }
    }
    if (match) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::sum(std::string_view name, const Labels& labels) const {
  double total = 0;
  for (const MetricSample& s : samples) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& want : labels) {
      if (std::find(s.labels.begin(), s.labels.end(), want) ==
          s.labels.end()) {
        match = false;
        break;
      }
    }
    if (match) total += s.value;
  }
  return total;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::ostringstream os;
  for (const MetricSample& s : samples) {
    const std::string name = prometheus_name(s.name);
    switch (s.kind) {
      case MetricKind::kCounter:
        os << name << "_total" << prometheus_labels(s.labels) << ' '
           << static_cast<std::uint64_t>(s.value) << '\n';
        break;
      case MetricKind::kGauge:
        os << name << prometheus_labels(s.labels) << ' ' << s.value << '\n';
        break;
      case MetricKind::kHistogram: {
        // Summary form: count + the quantiles the snapshot carries.
        const std::pair<const char*, Picos> quantiles[] = {
            {"0.5", s.p50}, {"0.9", s.p90}, {"0.99", s.p99}, {"0.999", s.p999}};
        for (const auto& [q, v] : quantiles) {
          Labels ls = s.labels;
          ls.emplace_back("quantile", q);
          os << name << prometheus_labels(ls) << ' ' << v << '\n';
        }
        os << name << "_count" << prometheus_labels(s.labels) << ' ' << s.count
           << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"at_ps\": " << at << ", \"metrics\": [";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"";
    json_escape(os, s.name);
    os << "\", \"labels\": {";
    bool fl = true;
    for (const auto& [k, v] : s.labels) {
      if (!fl) os << ", ";
      fl = false;
      os << '"';
      json_escape(os, k);
      os << "\": \"";
      json_escape(os, v);
      os << '"';
    }
    os << "}, ";
    switch (s.kind) {
      case MetricKind::kCounter:
        os << "\"type\": \"counter\", \"value\": ";
        json_number(os, s.value);
        break;
      case MetricKind::kGauge:
        os << "\"type\": \"gauge\", \"value\": ";
        json_number(os, s.value);
        break;
      case MetricKind::kHistogram:
        os << "\"type\": \"histogram\", \"count\": " << s.count
           << ", \"min\": " << s.min << ", \"max\": " << s.max
           << ", \"mean\": " << s.mean << ", \"p50\": " << s.p50
           << ", \"p90\": " << s.p90 << ", \"p99\": " << s.p99
           << ", \"p999\": " << s.p999;
        break;
    }
    os << "}";
  }
  os << "\n]}";
  return os.str();
}

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name,
                                               Labels&& labels,
                                               MetricKind kind) {
  Labels canon = canonical(std::move(labels));
  const std::string key = series_key(name, canon);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    e.name = name;
    e.labels = std::move(canon);
    e.kind = kind;
    switch (kind) {
      case MetricKind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case MetricKind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case MetricKind::kHistogram:
        e.histogram = std::make_unique<sim::LatencyHistogram>();
        break;
    }
    it = entries_.emplace(key, std::move(e)).first;
  }
  DHL_CHECK_MSG(it->second.kind == kind,
                "metric '" << name << "' re-registered with a different kind");
  return it->second;
}

Counter* MetricsRegistry::counter(const std::string& name, Labels labels) {
  return entry(name, std::move(labels), MetricKind::kCounter).counter.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return entry(name, std::move(labels), MetricKind::kGauge).gauge.get();
}

sim::LatencyHistogram* MetricsRegistry::histogram(const std::string& name,
                                                 Labels labels) {
  return entry(name, std::move(labels), MetricKind::kHistogram)
      .histogram.get();
}

MetricsSnapshot MetricsRegistry::snapshot(Picos at) const {
  MetricsSnapshot snap;
  snap.at = at;
  std::lock_guard<std::mutex> lock(mu_);
  snap.samples.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricKind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const sim::LatencyHistogram& h = *e.histogram;
        s.count = h.count();
        s.value = static_cast<double>(h.count());
        s.min = h.min();
        s.max = h.max();
        s.mean = static_cast<Picos>(h.mean());
        s.p50 = h.percentile(0.5);
        s.p90 = h.percentile(0.9);
        s.p99 = h.percentile(0.99);
        s.p999 = h.percentile(0.999);
        break;
      }
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter: e.counter->reset(); break;
      case MetricKind::kGauge: e.gauge->reset(); break;
      case MetricKind::kHistogram: e.histogram->reset(); break;
    }
  }
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace dhl::telemetry
