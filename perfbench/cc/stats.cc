#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

int64_t RankIndex(int64_t n, double q) {
  // ceil(q * n) computed on the rounded product so that 0.95 * 100
  // gives rank 95, not 96 from floating-point error.
  const double product = q * static_cast<double>(n);
  const auto rank =
      static_cast<int64_t>(std::ceil(std::round(product * 1e9) / 1e9));
  return std::clamp<int64_t>(rank, 1, n) - 1;
}

}  // namespace

std::optional<int64_t> Percentile(std::vector<int64_t>& samples, double q) {
  if (samples.empty()) return std::nullopt;
  const int64_t idx = RankIndex(static_cast<int64_t>(samples.size()), q);
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  return n - (RankIndex(n, q) + 1);
}

bool Supports(int64_t n, double q) { return SamplesBeyond(n, q) >= kMinBeyond; }

std::optional<double> HighestSupportedTail(int64_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.90}) {
    if (Supports(n, q)) return q;
  }
  return std::nullopt;
}

std::optional<double> Median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace perfbench
