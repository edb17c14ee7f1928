#include "client/io_session.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "baseline/kernel_server.h"
#include "baseline/local_nvme_driver.h"
#include "baseline/local_spdk.h"
#include "client/reflex_client.h"
#include "client/storage_backend.h"
#include "cluster/cluster_client.h"
#include "testing/cluster_harness.h"
#include "testing/harness.h"

namespace reflex::client {
namespace {

using testing::ClusterHarness;
using testing::Harness;

// ---------------------------------------------------------------------
// Conformance: every IoSession implementation behaves the same way.
// ---------------------------------------------------------------------

enum class Kind { kTenant, kCluster, kLocalSpdk, kLocalNvme, kKernelServer };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kTenant:
      return "TenantSession";
    case Kind::kCluster:
      return "ClusterSession";
    case Kind::kLocalSpdk:
      return "LocalSpdkService";
    case Kind::kLocalNvme:
      return "LocalNvmeDriver";
    case Kind::kKernelServer:
      return "KernelStorageServer";
  }
  return "Unknown";
}

void PrintTo(Kind kind, std::ostream* os) { *os << KindName(kind); }

/** One IoSession under test plus the world it runs in and its shape. */
struct SessionWorld {
  explicit SessionWorld(Kind kind) {
    if (kind == Kind::kCluster) {
      shards = 2;
      lanes = 2;
      cluster::ClusterClient::Options copts;
      copts.client.num_connections = lanes;
      cluster_harness = std::make_unique<ClusterHarness>(
          ClusterHarness::MakeOptions(shards, /*stripe_sectors=*/8), copts);
      sim = &cluster_harness->sim;
      session = cluster_harness->client.OpenSession(
          core::SloSpec{}, core::TenantClass::kBestEffort);
      return;
    }
    harness = std::make_unique<Harness>();
    Harness& h = *harness;
    sim = &h.sim;
    if (kind == Kind::kTenant) {
      lanes = 3;
      ReflexClient::Options copts;
      copts.num_connections = lanes;
      client = std::make_unique<ReflexClient>(h.sim, h.server,
                                              h.client_machine, copts);
      session = client->AttachSession(h.BeTenant()->handle());
    } else if (kind == Kind::kLocalSpdk) {
      lanes = 2;
      baseline::LocalSpdkService::Options o;
      o.num_threads = lanes;
      session =
          std::make_unique<baseline::LocalSpdkService>(h.sim, h.device, o);
    } else if (kind == Kind::kLocalNvme) {
      lanes = 3;
      baseline::LocalNvmeDriver::Options o;
      o.num_contexts = lanes;
      session =
          std::make_unique<baseline::LocalNvmeDriver>(h.sim, h.device, o);
    } else {
      lanes = 4;
      session = std::make_unique<baseline::KernelStorageServer>(
          h.sim, h.net, h.client_machine, h.server_machine, h.device,
          baseline::BaselineCosts::Iscsi(), lanes);
    }
  }

  bool Await(const sim::Future<IoResult>& io) {
    while (!io.Ready() && sim->Now() < sim::Seconds(30)) {
      sim->RunUntil(sim->Now() + sim::Millis(1));
    }
    return io.Ready();
  }

  // Declaration order is teardown order in reverse: the session goes
  // before the client and the devices it issues to.
  std::unique_ptr<Harness> harness;
  std::unique_ptr<ClusterHarness> cluster_harness;
  std::unique_ptr<ReflexClient> client;
  std::unique_ptr<IoSession> session;
  sim::Simulator* sim = nullptr;
  int lanes = 0;
  int shards = 1;
};

class IoSessionConformanceTest : public ::testing::TestWithParam<Kind> {
 protected:
  IoSessionConformanceTest() : world_(GetParam()) {}

  IoSession& session() { return *world_.session; }

  SessionWorld world_;
};

TEST_P(IoSessionConformanceTest, PayloadWriteThenReadRoundTrips) {
  ASSERT_NE(world_.session, nullptr);
  const uint32_t sectors = 2 * session().sectors_per_page();
  std::vector<uint8_t> out(sectors * session().sector_bytes());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>((i * 29 + 3) & 0xff);
  }
  auto write = session().Write(/*lba=*/40, sectors, out.data());
  ASSERT_TRUE(world_.Await(write));
  ASSERT_TRUE(write.Get().ok());

  std::vector<uint8_t> in(out.size(), 0);
  auto read = session().Read(/*lba=*/40, sectors, in.data());
  ASSERT_TRUE(world_.Await(read));
  ASSERT_TRUE(read.Get().ok());
  EXPECT_EQ(in, out);
}

TEST_P(IoSessionConformanceTest, NumLanesMatchesConfiguration) {
  ASSERT_NE(world_.session, nullptr);
  EXPECT_EQ(session().num_lanes(), world_.lanes);
}

TEST_P(IoSessionConformanceTest, EveryLaneServesIo) {
  ASSERT_NE(world_.session, nullptr);
  for (int lane = 0; lane < session().num_lanes(); ++lane) {
    auto read = session().Read(/*lba=*/8 * lane, 8, nullptr, lane);
    ASSERT_TRUE(world_.Await(read));
    EXPECT_TRUE(read.Get().ok()) << "lane " << lane;
  }
}

TEST_P(IoSessionConformanceTest, GeometryMatchesDeviceProfile) {
  ASSERT_NE(world_.session, nullptr);
  const flash::DeviceProfile profile = flash::DeviceProfile::DeviceA();
  // A striped, unreplicated cluster volume spans every shard's device.
  EXPECT_EQ(session().capacity_sectors(),
            static_cast<uint64_t>(world_.shards) * profile.capacity_sectors);
  EXPECT_EQ(session().sector_bytes(), profile.sector_bytes);
  EXPECT_EQ(session().sectors_per_page(), profile.SectorsPerPage());
}

INSTANTIATE_TEST_SUITE_P(
    AllSessions, IoSessionConformanceTest,
    ::testing::Values(Kind::kTenant, Kind::kCluster, Kind::kLocalSpdk,
                      Kind::kLocalNvme, Kind::kKernelServer));

// ---------------------------------------------------------------------
// SessionStorageBackend: byte ranges to covering sector ranges.
// ---------------------------------------------------------------------

/** Records every call and completes it at once. */
class RecordingSession : public IoSession {
 public:
  struct Call {
    IoOp op;
    uint64_t lba;
    uint32_t sectors;
  };

  explicit RecordingSession(sim::Simulator& sim) : sim_(sim) {}

  sim::Future<IoResult> Read(uint64_t lba, uint32_t sectors, uint8_t*,
                             int) override {
    calls.push_back({IoOp::kRead, lba, sectors});
    return Completed();
  }
  sim::Future<IoResult> Write(uint64_t lba, uint32_t sectors, uint8_t*,
                              int) override {
    calls.push_back({IoOp::kWrite, lba, sectors});
    return Completed();
  }

  uint32_t tenant_handle() const override { return 0; }
  int num_lanes() const override { return 1; }
  uint64_t capacity_sectors() const override { return 12345; }
  uint32_t sector_bytes() const override { return 512; }
  uint32_t sectors_per_page() const override { return 8; }

  std::vector<Call> calls;

 private:
  sim::Future<IoResult> Completed() {
    sim::Promise<IoResult> promise(sim_);
    promise.Set(IoResult{});
    return promise.GetFuture();
  }

  sim::Simulator& sim_;
};

TEST(SessionStorageBackendTest, UnalignedReadCoversEveryTouchedSector) {
  sim::Simulator sim;
  RecordingSession session(sim);
  SessionStorageBackend backend(session);
  // Bytes [100, 1100) touch sectors 0, 1 and 2.
  EXPECT_TRUE(backend.ReadBytes(100, 1000, nullptr).Ready());
  ASSERT_EQ(session.calls.size(), 1u);
  EXPECT_EQ(session.calls[0].op, IoOp::kRead);
  EXPECT_EQ(session.calls[0].lba, 0u);
  EXPECT_EQ(session.calls[0].sectors, 3u);
}

TEST(SessionStorageBackendTest, AlignedPageWriteIssuesEightSectors) {
  sim::Simulator sim;
  RecordingSession session(sim);
  SessionStorageBackend backend(session);
  EXPECT_TRUE(backend.WriteBytes(4096, 4096, nullptr).Ready());
  ASSERT_EQ(session.calls.size(), 1u);
  EXPECT_EQ(session.calls[0].op, IoOp::kWrite);
  EXPECT_EQ(session.calls[0].lba, 8u);
  EXPECT_EQ(session.calls[0].sectors, 8u);
}

TEST(SessionStorageBackendTest, CapacityIsSessionSectorsTimesSectorBytes) {
  sim::Simulator sim;
  RecordingSession session(sim);
  SessionStorageBackend backend(session);
  EXPECT_EQ(backend.CapacityBytes(), 12345u * 512u);
}

}  // namespace
}  // namespace reflex::client
