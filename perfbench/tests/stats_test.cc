// Unit tests for the benchmark's own metric code: nearest-rank
// percentiles and the ten-samples-beyond rule, medians, ratio bases,
// the determinism fingerprint and span self time. (Quartiles are
// computed in spread.py; test_spread.py covers them.) Exits 1 if any
// expectation fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "report.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: expected %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<int64_t> OneTo(int64_t n) {
  std::vector<int64_t> v;
  for (int64_t i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  std::vector<int64_t> empty;
  EXPECT(!perfbench::Percentile(empty, 0.5).has_value());
  std::vector<int64_t> v = OneTo(100);
  EXPECT(*perfbench::Percentile(v, 0.50) == 50);
  EXPECT(*perfbench::Percentile(v, 0.95) == 95);
  EXPECT(*perfbench::Percentile(v, 0.99) == 99);
  EXPECT(*perfbench::Percentile(v, 1.00) == 100);
  std::vector<int64_t> one = {7};
  EXPECT(*perfbench::Percentile(one, 0.999) == 7);
  std::vector<int64_t> big = OneTo(10000);
  EXPECT(*perfbench::Percentile(big, 0.999) == 9990);
}

void TestSampleRule() {
  EXPECT(perfbench::SamplesBeyond(10000, 0.999) == 10);
  EXPECT(perfbench::Supports(10000, 0.999));
  EXPECT(!perfbench::Supports(9999, 0.999));
  EXPECT(perfbench::Supports(1000, 0.99));
  EXPECT(!perfbench::Supports(999, 0.99));
  EXPECT(perfbench::SamplesBeyond(0, 0.5) == 0);
  EXPECT(*perfbench::HighestSupportedTail(10000) == 0.999);
  EXPECT(*perfbench::HighestSupportedTail(9999) == 0.99);
  EXPECT(*perfbench::HighestSupportedTail(200) == 0.95);
  EXPECT(*perfbench::HighestSupportedTail(100) == 0.90);
  EXPECT(!perfbench::HighestSupportedTail(99).has_value());

  perfbench::Report r;
  perfbench::AddLatency(r, "lat", OneTo(2000));
  EXPECT(r.Find("lat_samples")->value == 2000);
  EXPECT(Near(r.Find("lat_p50_us")->value, 1000 / 1e3));
  EXPECT(r.Find("lat_p999_us") == nullptr);
  EXPECT(Near(r.Find("lat_p99_us")->value, 1980 / 1e3));
  EXPECT(r.Find("lat_p99_us")->note == "n=2000, 20 beyond");
}

void TestMedian() {
  EXPECT(!perfbench::Median({}).has_value());
  EXPECT(*perfbench::Median({3, 1, 2}) == 2);
  EXPECT(*perfbench::Median({4, 1, 2, 3}) == 2.5);
}

void TestRatio() {
  EXPECT(perfbench::Ratio(3, 4) == 0.75);
  EXPECT(perfbench::Ratio(5, 0) == 0.0);
}

void TestReport() {
  perfbench::Report a;
  a.Add("x", 0.1, "s", perfbench::Kind::kSim, perfbench::Scope::kEndToEnd);
  a.Add("h", 2.0, "s", perfbench::Kind::kHost, perfbench::Scope::kEndToEnd);
  perfbench::Report b;
  b.Add("x", 0.1, "s", perfbench::Kind::kSim, perfbench::Scope::kEndToEnd);
  b.Add("h", 3.0, "s", perfbench::Kind::kHost, perfbench::Scope::kEndToEnd);
  // Host values do not enter the determinism fingerprint.
  EXPECT(a.SimFingerprint() == b.SimFingerprint());
  EXPECT(a.SimFingerprint() == "x=0.10000000000000001 s\n");
  bool threw = false;
  try {
    a.Add("x", 1, "s", perfbench::Kind::kSim, perfbench::Scope::kEndToEnd);
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(threw);
}

void TestSpans() {
  perfbench::SpanRecorder rec;
  {
    perfbench::ScopedSpan outer(&rec, "outer");
    perfbench::ScopedSpan inner(&rec, "inner");
  }
  EXPECT(rec.spans().size() == 2);
  EXPECT(rec.spans()[1].parent == 0);
  const auto total = rec.TotalSeconds();
  const auto self = rec.SelfSeconds();
  EXPECT(Near(self.at("outer"), total.at("outer") - total.at("inner")));
  EXPECT(Near(self.at("inner"), total.at("inner")));
  perfbench::ScopedSpan off(nullptr, "ignored");  // untraced: no-op
}

}  // namespace

int main() {
  TestPercentile();
  TestSampleRule();
  TestMedian();
  TestRatio();
  TestReport();
  TestSpans();
  if (failures == 0) std::printf("stats_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
