#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * sim: computed from simulated time and counts; repeats exactly for a
 * given seed. host: measured on the host clock; noisy, compared as
 * medians over runs.
 */
enum class Kind { kSim, kHost };

/** e2e: what a user of the system sees; layer: one module's view. */
enum class Scope { kEndToEnd, kLayer };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kSim;
  Scope scope = Scope::kEndToEnd;
  /** Sample count, ratio base or aggregation rule, for the reader. */
  std::string note;
};

/** An ordered, name-unique list of metrics. */
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           Kind kind, Scope scope, const std::string& note = "");
  /** Null when absent. */
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }
  void Append(const Report& other);

  /**
   * Canonical text of every sim metric (name, unit and value with all
   * 17 significant digits). Two runs agree on their simulated results
   * exactly when these strings are byte-identical.
   */
  std::string SimFingerprint() const;

  /** {"name": {"value", "unit", "kind", "scope", "note"}, ...} */
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

/**
 * Adds `<prefix>_p50_us` and the highest tail percentile the sample
 * supports (`<prefix>_p999_us`, `_p99_us`, ...), each noting its sample
 * count, plus `<prefix>_samples`. Latencies are in ns. Adds nothing
 * but the count when the sample is empty.
 */
void AddLatency(Report& report, const std::string& prefix,
                std::vector<int64_t> samples_ns);

/** JSON string literal for `s`. */
std::string JsonString(const std::string& s);

/** Shortest round-tripping decimal for `v` (JSON number). */
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
