#include "report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "stats.h"

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit, Kind kind, Scope scope,
                 const std::string& note) {
  if (Find(name) != nullptr) {
    throw std::logic_error("duplicate metric " + name);
  }
  metrics_.push_back(Metric{name, value, unit, kind, scope, note});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Append(const Report& other) {
  for (const Metric& m : other.metrics_) {
    Add(m.name, m.value, m.unit, m.kind, m.scope, m.note);
  }
}

std::string Report::SimFingerprint() const {
  std::string out;
  char buf[64];
  for (const Metric& m : metrics_) {
    if (m.kind != Kind::kSim) continue;
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += m.name + "=" + buf + " " + m.unit + "\n";
  }
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Report::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ",";
    out += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + ",\"kind\":\"" +
           (m.kind == Kind::kSim ? "sim" : "host") + "\",\"scope\":\"" +
           (m.scope == Scope::kEndToEnd ? "e2e" : "layer") +
           "\",\"note\":" + JsonString(m.note) + "}";
  }
  return out + "}";
}

void AddLatency(Report& report, const std::string& prefix,
                std::vector<int64_t> samples_ns) {
  const auto n = static_cast<int64_t>(samples_ns.size());
  const std::string count_note = "n=" + std::to_string(n);
  report.Add(prefix + "_samples", static_cast<double>(n), "count",
             Kind::kSim, Scope::kEndToEnd);
  if (n == 0) return;
  report.Add(prefix + "_p50_us", *Percentile(samples_ns, 0.50) / 1e3, "us",
             Kind::kSim, Scope::kEndToEnd, count_note);
  const std::optional<double> tail = HighestSupportedTail(n);
  if (!tail) return;
  const char* suffix = *tail == 0.999  ? "_p999_us"
                       : *tail == 0.99 ? "_p99_us"
                       : *tail == 0.95 ? "_p95_us"
                                       : "_p90_us";
  report.Add(prefix + suffix, *Percentile(samples_ns, *tail) / 1e3, "us",
             Kind::kSim, Scope::kEndToEnd,
             count_note + ", " + std::to_string(SamplesBeyond(n, *tail)) +
                 " beyond");
}

}  // namespace perfbench
