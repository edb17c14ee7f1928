// ClusterSession racing a map flip: a request routed by a stale map
// copy bounces with kWrongShard, refreshes, and reissues -- bounded,
// deterministic, and with per-shard latency attributed to the shard
// that actually served the request.

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/migration.h"
#include "core/reflex_server.h"
#include "testing/cluster_harness.h"
#include "testing/histogram_assert.h"

namespace reflex {
namespace {

using cluster::FlashClusterOptions;
using cluster::MigrationCoordinator;
using core::SloSpec;
using core::TenantClass;
using testing::ClusterHarness;

constexpr uint32_t kStripeSectors = 8;

FlashClusterOptions MobileOptions() {
  FlashClusterOptions options =
      ClusterHarness::MakeOptions(2, kStripeSectors);
  options.shard_map.migration_slots = 8;
  return options;
}

std::vector<uint8_t> Pattern(size_t bytes, uint8_t salt) {
  std::vector<uint8_t> out(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<uint8_t>((i * 61 + salt) & 0xff);
  }
  return out;
}

template <typename T>
bool Await(ClusterHarness& h, const sim::Future<T>& f) {
  return h.RunUntilReady([&f] { return f.Ready(); });
}

/** Commits a stripe-0 migration (shard 0 -> 1) behind the client's
 * back: the client's local map copy is now one epoch stale. */
void FlipStripeZero(ClusterHarness& h, MigrationCoordinator& coordinator) {
  auto done = coordinator.MigrateRange(0, 1, 0, 1);
  ASSERT_TRUE(Await(h, done));
  ASSERT_TRUE(done.Get());
  ASSERT_LT(h.client.local_map().epoch(), h.cluster.shard_map().epoch())
      << "the client must still hold the pre-cutover map";
}

TEST(WrongShardRetryTest, StaleMapReadRefreshesRetriesOnceAndSucceeds) {
  ClusterHarness h(MobileOptions());
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto writer = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(writer, nullptr);

  const auto data = Pattern(kStripeSectors * core::kSectorBytes, 5);
  auto write = writer->Write(0, kStripeSectors,
                             const_cast<uint8_t*>(data.data()));
  ASSERT_TRUE(Await(h, write) && write.Get().ok());
  FlipStripeZero(h, coordinator);

  // A fresh session, still routed by the stale map: its read bounces
  // off the moved range, refreshes, and lands on the new owner.
  auto probe = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(probe, nullptr);
  std::vector<uint8_t> in(data.size(), 0);
  auto read = probe->Read(0, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, read));
  ASSERT_TRUE(read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), data.data(), in.size()), 0);
  EXPECT_EQ(probe->wrong_shard_retries(), 1)
      << "one refresh must suffice after a committed cutover";
  EXPECT_EQ(h.client.local_map().epoch(), h.cluster.shard_map().epoch())
      << "the bounce must have refreshed the client's map";

  // Attribution follows the serving shard: the migrated-to shard 1
  // records the sample, the stale primary records nothing.
  EXPECT_EQ(probe->shard_reads_served(1), 1);
  EXPECT_EQ(probe->shard_reads_served(0), 0);
  EXPECT_TRUE(testing::HasSamples(probe->shard_latency(1)));
  EXPECT_FALSE(testing::HasSamples(probe->shard_latency(0)));
}

TEST(WrongShardRetryTest, StaleMapWriteRetriesAndLandsOnTheNewOwner) {
  ClusterHarness h(MobileOptions());
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);
  FlipStripeZero(h, coordinator);

  const auto data = Pattern(kStripeSectors * core::kSectorBytes, 9);
  auto write = session->Write(0, kStripeSectors,
                              const_cast<uint8_t*>(data.data()));
  ASSERT_TRUE(Await(h, write));
  ASSERT_TRUE(write.Get().ok());
  EXPECT_EQ(session->wrong_shard_retries(), 1);

  std::vector<uint8_t> in(data.size(), 0);
  auto read = session->Read(0, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, read) && read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), data.data(), in.size()), 0);
}

// A range that bounces forever (a gate demanding an epoch the master
// map never reaches) must exhaust the bounded budget and fail closed
// -- never spin.
TEST(WrongShardRetryTest, RetryBudgetIsBoundedAndFailsClosed) {
  ClusterHarness h(MobileOptions());
  const int gate_id = h.cluster.server(0).AddRangeGate(0, kStripeSectors);
  core::RangeGate* gate = h.cluster.server(0).FindRangeGate(gate_id);
  ASSERT_NE(gate, nullptr);
  gate->state = core::RangeGateState::kMoved;
  gate->min_epoch = ~uint64_t{0} - 1;  // no client epoch ever passes

  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);
  auto read = session->Read(0, kStripeSectors);
  ASSERT_TRUE(Await(h, read));
  EXPECT_FALSE(read.Get().ok());
  EXPECT_EQ(read.Get().status, core::ReqStatus::kWrongShard)
      << "the terminal bounce surfaces instead of spinning";
  EXPECT_EQ(session->wrong_shard_retries(), 6)
      << "exactly kMaxWrongShardRetries refresh-and-reissue rounds";
}

// The retry path consumes no hidden nondeterminism: two identical
// stale-map runs complete at the same simulated time with the same
// retry count.
TEST(WrongShardRetryTest, WrongShardRetriesAreDeterministic) {
  auto run = [] {
    ClusterHarness h(MobileOptions());
    MigrationCoordinator coordinator(h.cluster, h.net);
    auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
    EXPECT_NE(session, nullptr);
    const auto data = Pattern(kStripeSectors * core::kSectorBytes, 13);
    auto write = session->Write(0, kStripeSectors,
                                const_cast<uint8_t*>(data.data()));
    EXPECT_TRUE(Await(h, write) && write.Get().ok());
    auto done = coordinator.MigrateRange(0, 1, 0, 1);
    EXPECT_TRUE(Await(h, done) && done.Get());

    auto read = session->Read(0, kStripeSectors);
    EXPECT_TRUE(Await(h, read) && read.Get().ok());
    return std::make_pair(read.Get().complete_time,
                          session->wrong_shard_retries());
  };
  EXPECT_EQ(run(), run());
}

// Tearing a session down with I/O in flight: one logical I/O is parked
// in the wrong-shard backoff Delay, another on a sub-read. The session
// destroys both frames, and the simulation then keeps running past the
// backoff and the sub-read's response -- neither may resume a freed
// frame (ASan), and no frame may outlive the session
// (REFLEX_CORO_DEBUG's ~Simulator check).
TEST(WrongShardRetryTest, SessionTeardownWithIoInFlightFreesEveryFrame) {
  ClusterHarness h(MobileOptions());
  const int gate_id = h.cluster.server(0).AddRangeGate(0, kStripeSectors);
  core::RangeGate* gate = h.cluster.server(0).FindRangeGate(gate_id);
  ASSERT_NE(gate, nullptr);
  gate->state = core::RangeGateState::kMoved;
  gate->min_epoch = ~uint64_t{0} - 1;  // stripe 0 bounces every attempt

  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);
  auto bounced = session->Read(0, kStripeSectors);
  // Step finely until the first bounce: the I/O is then inside its
  // 50 us backoff Delay.
  const sim::TimeNs deadline = h.sim.Now() + sim::Millis(10);
  while (session->wrong_shard_retries() == 0 && h.sim.Now() < deadline) {
    h.sim.RunUntil(h.sim.Now() + sim::Micros(1));
  }
  ASSERT_EQ(session->wrong_shard_retries(), 1);
  // Stripe 1 lives on shard 1, which has no gate: this one is parked
  // on its sub-read when the session goes away.
  std::vector<uint8_t> in(kStripeSectors * core::kSectorBytes, 0);
  auto parked = session->Read(kStripeSectors, kStripeSectors, in.data());
  ASSERT_FALSE(bounced.Ready());
  ASSERT_FALSE(parked.Ready());

  session.reset();
  h.sim.RunUntil(h.sim.Now() + sim::Millis(5));
  EXPECT_FALSE(bounced.Ready()) << "an abandoned I/O never resolves";
  EXPECT_FALSE(parked.Ready());
}

}  // namespace
}  // namespace reflex
