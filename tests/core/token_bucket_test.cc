#include "core/token_bucket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace reflex::core {
namespace {

TEST(GlobalTokenBucketTest, StartsEmpty) {
  GlobalTokenBucket bucket;
  EXPECT_DOUBLE_EQ(bucket.Tokens(), 0.0);
  EXPECT_DOUBLE_EQ(bucket.TryClaim(10.0), 0.0);
}

TEST(GlobalTokenBucketTest, DonateAndClaim) {
  GlobalTokenBucket bucket;
  bucket.Donate(100.0);
  EXPECT_NEAR(bucket.Tokens(), 100.0, 1e-6);
  EXPECT_NEAR(bucket.TryClaim(30.0), 30.0, 1e-6);
  EXPECT_NEAR(bucket.Tokens(), 70.0, 1e-6);
}

TEST(GlobalTokenBucketTest, ClaimMoreThanAvailableReturnsRemainder) {
  GlobalTokenBucket bucket;
  bucket.Donate(5.0);
  EXPECT_NEAR(bucket.TryClaim(50.0), 5.0, 1e-6);
  EXPECT_DOUBLE_EQ(bucket.Tokens(), 0.0);
}

TEST(GlobalTokenBucketTest, FractionalTokens) {
  GlobalTokenBucket bucket;
  // Scheduling rounds often produce fractions of a token.
  for (int i = 0; i < 1000; ++i) bucket.Donate(0.001);
  EXPECT_NEAR(bucket.Tokens(), 1.0, 1e-3);
}

TEST(GlobalTokenBucketTest, FractionalDonationsDoNotBleedTokens) {
  // Regression: 0.29 * 1e6 == 289999.99999999994. With truncation
  // instead of rounding in the micro-token conversion, every such
  // donation lost a micro-token -- about one whole token per million
  // fractional donations, a continuous leak in a scheduler that
  // donates sub-token amounts every round.
  GlobalTokenBucket bucket;
  constexpr int kDonations = 1000000;
  for (int i = 0; i < kDonations; ++i) bucket.Donate(0.29);
  // Truncation would land at ~289999.0 tokens; rounding is exact.
  EXPECT_NEAR(bucket.Tokens(), 0.29 * kDonations, 0.01);
}

TEST(GlobalTokenBucketTest, ClaimRoundTripConservesFractions) {
  GlobalTokenBucket bucket;
  bucket.Donate(0.29);
  const double got = bucket.TryClaim(0.29);
  EXPECT_NEAR(got, 0.29, 1e-6);
  EXPECT_DOUBLE_EQ(bucket.Tokens(), 0.0);
}

TEST(GlobalTokenBucketTest, NegativeAndZeroInputsIgnored) {
  GlobalTokenBucket bucket;
  bucket.Donate(-5.0);
  bucket.Donate(0.0);
  EXPECT_DOUBLE_EQ(bucket.Tokens(), 0.0);
  EXPECT_DOUBLE_EQ(bucket.TryClaim(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(bucket.TryClaim(0.0), 0.0);
}

TEST(GlobalTokenBucketTest, DonateEachMatchesRepeatedDonations) {
  // 0.29 tokens is 289999.99999999994 micro-tokens before rounding:
  // a batched donation must round each share, not the product.
  for (double tokens : {0.29, 1e-7, 3.0000004, 0.0, -1.0}) {
    GlobalTokenBucket one_by_one;
    GlobalTokenBucket batched;
    for (int i = 0; i < 1000; ++i) one_by_one.Donate(tokens);
    batched.DonateEach(1000, tokens);
    EXPECT_EQ(batched.Tokens(), one_by_one.Tokens()) << tokens;
  }
  GlobalTokenBucket bucket;
  bucket.DonateEach(0, 5.0);
  EXPECT_DOUBLE_EQ(bucket.Tokens(), 0.0);
}

TEST(GlobalTokenBucketTest, ResetEmpties) {
  GlobalTokenBucket bucket;
  bucket.Donate(42.0);
  bucket.Reset();
  EXPECT_DOUBLE_EQ(bucket.Tokens(), 0.0);
}

TEST(GlobalTokenBucketTest, ConcurrentClaimsNeverOverdraw) {
  // The bucket is the one genuinely shared structure between dataplane
  // threads; verify it under real concurrency.
  GlobalTokenBucket bucket;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  bucket.Donate(kThreads * kOpsPerThread * 0.5);

  std::atomic<double> claimed_total{0.0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bucket, &claimed_total] {
      double local = 0.0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        local += bucket.TryClaim(1.0);
      }
      double expected = claimed_total.load();
      while (!claimed_total.compare_exchange_weak(expected,
                                                  expected + local)) {
      }
    });
  }
  for (auto& th : threads) th.join();

  const double total = kThreads * kOpsPerThread * 0.5;
  // No tokens invented: claimed + remaining == donated.
  EXPECT_NEAR(claimed_total.load() + bucket.Tokens(), total, 1e-3);
  EXPECT_GE(bucket.Tokens(), 0.0);
}

TEST(GlobalTokenBucketTest, ConcurrentDonateAndClaimConserves) {
  GlobalTokenBucket bucket;
  constexpr int kThreads = 4;
  constexpr int kOps = 50000;
  std::atomic<double> claimed_total{0.0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bucket, &claimed_total, t] {
      double local = 0.0;
      for (int i = 0; i < kOps; ++i) {
        if ((i + t) % 2 == 0) {
          bucket.Donate(2.0);
        } else {
          local += bucket.TryClaim(1.5);
        }
      }
      double expected = claimed_total.load();
      while (!claimed_total.compare_exchange_weak(expected,
                                                  expected + local)) {
      }
    });
  }
  for (auto& th : threads) th.join();
  const double donated = kThreads * (kOps / 2) * 2.0;
  EXPECT_NEAR(claimed_total.load() + bucket.Tokens(), donated, 1e-2);
}

}  // namespace
}  // namespace reflex::core
