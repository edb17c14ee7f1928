#include "sim/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace reflex::sim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NamedStreamsAreIndependent) {
  Rng a(7, "flash");
  Rng b(7, "network");
  EXPECT_NE(a.Next(), b.Next());
  // Same (seed, name) pair reproduces.
  Rng c(7, "flash");
  Rng d(7, "flash");
  EXPECT_EQ(c.Next(), d.Next());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversRange) {
  Rng rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.NextBounded(10)];
  for (int count : seen) {
    EXPECT_GT(count, 800);  // expected 1000 each
    EXPECT_LT(count, 1200);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(RngTest, LognormalMedianConverges) {
  Rng rng(19);
  const int n = 100001;
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = rng.NextLognormal(100.0, 0.3);
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  EXPECT_NEAR(v[n / 2], 100.0, 2.5);
}

TEST(RngTest, LognormalZeroSigmaIsExact) {
  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(rng.NextLognormal(140.0, 0.0), 140.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(29);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.8);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.8, 0.01);
}

TEST(RngTest, ZipfStaysInRangeAndSkews) {
  Rng rng(37);
  const uint64_t n = 1000;
  int64_t low_ranks = 0;
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = rng.NextZipf(n, 0.99);
    ASSERT_LT(k, n);
    if (k < 10) ++low_ranks;
  }
  // Zipf(0.99): the top 10 of 1000 ranks attract a large share.
  EXPECT_GT(low_ranks, 15000);
}

TEST(RngTest, ZipfSmallN) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.NextZipf(1, 1.2), 0u);
  }
}

// Golden values: the first outputs of one raw-seeded and one named
// stream. Every stochastic component draws from these streams, so any
// change to the xoshiro256** step, the seeding or a derived
// distribution moves a pinned bench output; these tests say where.
// Doubles are compared exactly, written as hexadecimal literals.
struct StreamGolden {
  uint64_t next[4];
  double next_double[3];
  uint64_t next_bounded_1000[3];
  double next_exponential_2[3];
};

void ExpectStream(Rng rng, const StreamGolden& golden) {
  for (uint64_t want : golden.next) EXPECT_EQ(rng.Next(), want);
  for (double want : golden.next_double) EXPECT_EQ(rng.NextDouble(), want);
  for (uint64_t want : golden.next_bounded_1000) {
    EXPECT_EQ(rng.NextBounded(1000), want);
  }
  for (double want : golden.next_exponential_2) {
    EXPECT_EQ(rng.NextExponential(2.0), want);
  }
}

TEST(RngGoldenTest, RawSeedStream) {
  ExpectStream(Rng(12345),
               {{0xbe6a36374160d49bULL, 0x214aaa0637a688c6ULL,
                 0xf69d16de9954d388ULL, 0x0c60048c4e96e033ULL},
                {0x1.1c40ed5ddaa38p-1, 0x1.5de60e0fe284p-7,
                 0x1.4739527f64278p-3},
                {710, 214, 181},
                {0x1.f8032a6489b9fp-2, 0x1.3e2708b1feb72p+0,
                 0x1.663234676e7cep-2}});
}

TEST(RngGoldenTest, NamedSeedStream) {
  ExpectStream(Rng(2026, "rmat"),
               {{0x2f6f66717b669333ULL, 0x7bf200934bb87867ULL,
                 0x4a2252e2034677cfULL, 0x1e0f637fa3cfb09dULL},
                {0x1.943313add605ep-2, 0x1.1936e7dc56247p-1,
                 0x1.8e89d7ee501e5p-1},
                {979, 676, 876},
                {0x1.27aec3462f2eep+1, 0x1.f28ebbb09eddap+1,
                 0x1.f2df3c51927d1p+0}});
}

}  // namespace
}  // namespace reflex::sim
