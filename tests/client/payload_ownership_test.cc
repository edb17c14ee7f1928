// The IoSession payload contract on the ReFlex client: once an I/O's
// future resolves, no attempt of it touches the caller's buffer again.
// A late read attempt must not overwrite it, and a write that resolved
// with an unknown outcome must still apply exactly the bytes it was
// issued with, whatever the caller has since done to its buffer.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "client/reflex_client.h"
#include "testing/harness.h"

namespace reflex {
namespace {

using client::IoResult;
using core::ReqStatus;
using sim::Micros;
using sim::Millis;
using testing::Harness;

constexpr uint32_t kSectors = 8;
constexpr size_t kBytes = kSectors * core::kSectorBytes;

/** Overwrites `*buf` with `fill` the instant `io` resolves. */
sim::Task FillOnResolve(sim::Future<IoResult> io, std::vector<uint8_t>* buf,
                        uint8_t fill, IoResult* result) {
  *result = co_await io;
  std::fill(buf->begin(), buf->end(), fill);
}

bool AllBytesAre(const std::vector<uint8_t>& buf, uint8_t value) {
  return std::all_of(buf.begin(), buf.end(),
                     [value](uint8_t b) { return b == value; });
}

TEST(PayloadOwnershipTest, LateReadAttemptLeavesResolvedBufferAlone) {
  Harness h;
  core::Tenant* tenant = h.LcTenant();
  // The timeout sits between half and one full round trip: attempt 1
  // times out, attempt 2 is retransmitted, and attempt 1's response
  // resolves the op while attempt 2 is still on its way to the device.
  client::ReflexClient::Options copts;
  copts.retry.request_timeout = Micros(60);
  copts.retry.max_retries = 1;
  client::ReflexClient client(h.sim, h.server, h.client_machine, copts);
  auto session = client.AttachSession(tenant->handle());

  constexpr uint8_t kSentinel = 0xAB;
  std::vector<uint8_t> buf(kBytes, 0);
  IoResult result;
  result.status = ReqStatus::kTimedOut;
  FillOnResolve(session->Read(0, kSectors, buf.data()), &buf, kSentinel,
                &result);
  h.RunUntilReady([&] { return h.sim.Now() >= Millis(5); });

  ASSERT_TRUE(result.ok());
  ASSERT_EQ(client.fault_stats().retries, 1);
  ASSERT_EQ(client.fault_stats().stale_responses, 1)
      << "the retransmission must still have been served after the op "
         "resolved, or this test exercises nothing";
  EXPECT_TRUE(AllBytesAre(buf, kSentinel))
      << "a late read attempt wrote into a buffer its caller owns again";
}

TEST(PayloadOwnershipTest, UnknownOutcomeWriteAppliesTheIssuedBytes) {
  Harness h;
  core::Tenant* tenant = h.LcTenant();
  // Times out long before the request reaches the device: the write
  // resolves kUnknownOutcome and then applies as a zombie.
  client::ReflexClient::Options copts;
  copts.retry.request_timeout = Micros(10);
  client::ReflexClient writer(h.sim, h.server, h.client_machine, copts);
  auto write_session = writer.AttachSession(tenant->handle());

  constexpr uint8_t kIssued = 0x5A;
  constexpr uint8_t kRewritten = 0xC3;
  std::vector<uint8_t> buf(kBytes, kIssued);
  IoResult result;
  FillOnResolve(write_session->Write(0, kSectors, buf.data()), &buf,
                kRewritten, &result);
  h.RunUntilReady([&] { return h.sim.Now() >= Millis(5); });
  ASSERT_EQ(result.status, ReqStatus::kUnknownOutcome);
  ASSERT_TRUE(AllBytesAre(buf, kRewritten));

  client::ReflexClient reader(h.sim, h.server, h.client_machine, {});
  auto read_session = reader.AttachSession(tenant->handle());
  std::vector<uint8_t> read_back(kBytes, 0);
  auto io = read_session->Read(0, kSectors, read_back.data());
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  ASSERT_TRUE(io.Get().ok());
  EXPECT_TRUE(AllBytesAre(read_back, kIssued))
      << "the zombie write applied bytes its caller wrote after it "
         "resolved";
}

}  // namespace
}  // namespace reflex
