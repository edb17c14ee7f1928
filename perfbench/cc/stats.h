#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/**
 * Exact (nearest-rank) percentile of `samples` at quantile q in (0, 1]:
 * the value at sorted position ceil(q * n) - 1. Sorts `samples` in
 * place. Returns nothing for an empty sample.
 */
std::optional<int64_t> Percentile(std::vector<int64_t>& samples, double q);

/**
 * Samples strictly beyond the nearest-rank position of quantile q in a
 * sample of n: n - ceil(q * n). A tail percentile is reported only
 * when this is at least kMinBeyond, so it rests on real samples.
 */
int64_t SamplesBeyond(int64_t n, double q);

inline constexpr int64_t kMinBeyond = 10;

/** True when a sample of n supports quantile q (kMinBeyond rule). */
bool Supports(int64_t n, double q);

/**
 * The highest of p99.9, p99, p95 and p90 that a sample of n supports,
 * or nothing when even p90 lacks ten samples beyond it.
 */
std::optional<double> HighestSupportedTail(int64_t n);

/** Median (mean of the middle pair for even n). Nothing when empty. */
std::optional<double> Median(std::vector<double> values);

/**
 * num / den, or 0 when the base `den` is 0. Every ratio metric is
 * reported beside its base, so a 0 from an empty base is visible.
 */
double Ratio(double num, double den);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
