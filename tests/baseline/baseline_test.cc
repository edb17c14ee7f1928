#include <gtest/gtest.h>

#include <memory>

#include "baseline/kernel_server.h"
#include "baseline/local_nvme_driver.h"
#include "baseline/local_spdk.h"
#include "client/io_session.h"
#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "sim/histogram.h"
#include "testing/harness.h"

namespace reflex::baseline {
namespace {

using client::IoSession;
using client::IoResult;
using sim::Micros;
using sim::Millis;
using sim::TimeNs;
using testing::Harness;

/** QD-1 probe over any IoSession; returns (avg, p95) read us. */
sim::Histogram ProbeReads(Harness& h, IoSession& session, int samples) {
  sim::Histogram hist;
  sim::Rng rng(7, "probe");
  for (int i = 0; i < samples; ++i) {
    const uint64_t lba = rng.NextBounded(1000000) * 8;
    auto f = session.Read(lba, 8);
    EXPECT_TRUE(h.RunUntilReady([&] { return f.Ready(); }));
    hist.Record(f.Get().Latency());
  }
  return hist;
}

sim::Histogram ProbeWrites(Harness& h, IoSession& session, int samples) {
  sim::Histogram hist;
  sim::Rng rng(8, "probe_w");
  for (int i = 0; i < samples; ++i) {
    const uint64_t lba = rng.NextBounded(1000000) * 8;
    auto f = session.Write(lba, 8);
    EXPECT_TRUE(h.RunUntilReady([&] { return f.Ready(); }));
    hist.Record(f.Get().Latency());
  }
  return hist;
}

TEST(BaselineTest, LocalSpdkUnloadedLatencyMatchesTable2) {
  Harness h;
  LocalSpdkService local(h.sim, h.device, LocalSpdkService::Options{});
  auto reads = ProbeReads(h, local, 300);
  // Table 2 Local (SPDK): 78us avg / 90us p95 reads.
  EXPECT_NEAR(reads.Mean() / 1e3, 78.0, 10.0);
  EXPECT_NEAR(reads.Percentile(0.95) / 1e3, 90.0, 14.0);
  auto writes = ProbeWrites(h, local, 300);
  // Table 2 Local: 11us avg / 17us p95 writes.
  EXPECT_NEAR(writes.Mean() / 1e3, 11.0, 4.0);
  EXPECT_LT(writes.Percentile(0.95) / 1e3, 24.0);
}

TEST(BaselineTest, IscsiUnloadedLatencyMatchesTable2) {
  Harness h;
  KernelStorageServer iscsi(h.sim, h.net, h.client_machine,
                            h.server_machine, h.device,
                            BaselineCosts::Iscsi(), 4);
  auto reads = ProbeReads(h, iscsi, 300);
  // Table 2 iSCSI: 211us avg / 251us p95 reads (2.8x local).
  EXPECT_GT(reads.Mean() / 1e3, 170.0);
  EXPECT_LT(reads.Mean() / 1e3, 245.0);
  auto writes = ProbeWrites(h, iscsi, 300);
  // Table 2 iSCSI: 155us avg writes.
  EXPECT_GT(writes.Mean() / 1e3, 110.0);
  EXPECT_LT(writes.Mean() / 1e3, 185.0);
}

TEST(BaselineTest, LibaioUnloadedLatencyMatchesTable2) {
  Harness h;
  KernelStorageServer libaio(
      h.sim, h.net, h.client_machine, h.server_machine, h.device,
      BaselineCosts::Libaio(net::StackCosts::IxDataplane()), 4);
  auto reads = ProbeReads(h, libaio, 300);
  // Table 2 Libaio + IX client: 121us avg / 139us p95 reads.
  EXPECT_NEAR(reads.Mean() / 1e3, 121.0, 18.0);
}

TEST(BaselineTest, Table2OrderingHolds) {
  // local < ReFlex(IX) < Libaio(IX) < iSCSI for unloaded reads.
  Harness h;
  LocalSpdkService local(h.sim, h.device, LocalSpdkService::Options{});
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient::Options copts;
  copts.stack = net::StackCosts::IxDataplane();
  client::ReflexClient rclient(h.sim, h.server, h.client_machine, copts);
  auto session = rclient.AttachSession(tenant->handle());
  KernelStorageServer libaio(
      h.sim, h.net, h.client_machine, h.server_machine, h.device,
      BaselineCosts::Libaio(net::StackCosts::IxDataplane()), 2);
  KernelStorageServer iscsi(h.sim, h.net, h.client_machine,
                            h.server_machine, h.device,
                            BaselineCosts::Iscsi(), 2);

  const double local_us = ProbeReads(h, local, 200).Mean() / 1e3;
  const double reflex_us = ProbeReads(h, *session, 200).Mean() / 1e3;
  const double libaio_us = ProbeReads(h, libaio, 200).Mean() / 1e3;
  const double iscsi_us = ProbeReads(h, iscsi, 200).Mean() / 1e3;

  EXPECT_LT(local_us, reflex_us);
  EXPECT_LT(reflex_us, libaio_us);
  EXPECT_LT(libaio_us, iscsi_us);
  // ReFlex adds ~21us over local (Table 2).
  EXPECT_NEAR(reflex_us - local_us, 21.0, 8.0);
}

sim::Task SaturateSession(sim::Simulator& sim, IoSession& session,
                          TimeNs end, int64_t* completed, uint64_t salt) {
  sim::Rng rng(salt, "saturate");
  while (sim.Now() < end) {
    const uint64_t lba = rng.NextBounded(1000000) * 8;
    auto f = co_await session.Read(lba, 2);  // 1KB
    (void)f;
    ++*completed;
  }
}

TEST(BaselineTest, LibaioServerIopsPerCoreNear75K) {
  Harness h;
  KernelStorageServer libaio(
      h.sim, h.net, h.client_machine, h.server_machine, h.device,
      BaselineCosts::Libaio(net::StackCosts::IxDataplane(), 1), 64);
  int64_t completed = 0;
  const TimeNs end = Millis(300);
  for (int q = 0; q < 256; ++q) {
    SaturateSession(h.sim, libaio, end, &completed, q);
  }
  h.sim.RunUntil(end + Millis(100));
  const double iops = static_cast<double>(completed) / sim::ToSeconds(end);
  // Section 5.1/5.3: ~75K IOPS per core for the libaio baseline.
  EXPECT_GT(iops, 55000.0);
  EXPECT_LT(iops, 95000.0);
}

TEST(BaselineTest, LocalSpdkSingleCoreNear870K) {
  Harness h;
  LocalSpdkService::Options o;
  o.num_threads = 1;
  LocalSpdkService local(h.sim, h.device, o);
  int64_t completed = 0;
  const TimeNs end = Millis(200);
  for (int q = 0; q < 512; ++q) {
    SaturateSession(h.sim, local, end, &completed, q);
  }
  h.sim.RunUntil(end + Millis(100));
  const double iops = static_cast<double>(completed) / sim::ToSeconds(end);
  // Section 5.3: a single core supports up to 870K IOPS on local Flash.
  EXPECT_GT(iops, 700000.0);
  EXPECT_LT(iops, 1000000.0);
}

TEST(BaselineTest, LocalSpdkTwoCoresSaturateDevice) {
  Harness h;
  LocalSpdkService::Options o;
  o.num_threads = 2;
  LocalSpdkService local(h.sim, h.device, o);
  int64_t completed = 0;
  const TimeNs end = Millis(200);
  for (int q = 0; q < 1024; ++q) {
    SaturateSession(h.sim, local, end, &completed, q);
  }
  h.sim.RunUntil(end + Millis(100));
  const double iops = static_cast<double>(completed) / sim::ToSeconds(end);
  // Device A sustains ~1.1M read-only IOPS; two cores saturate it.
  EXPECT_GT(iops, 1000000.0);
}

TEST(BaselineTest, LocalNvmeDriverSlowerThanSpdkButScales) {
  Harness h;
  LocalSpdkService spdk(h.sim, h.device, LocalSpdkService::Options{});
  LocalNvmeDriver kernel(h.sim, h.device, LocalNvmeDriver::Options{});
  const double spdk_us = ProbeReads(h, spdk, 200).Mean() / 1e3;
  const double kernel_us = ProbeReads(h, kernel, 200).Mean() / 1e3;
  EXPECT_GT(kernel_us, spdk_us + 5.0);
  EXPECT_LT(kernel_us, spdk_us + 40.0);
}

}  // namespace
}  // namespace reflex::baseline
