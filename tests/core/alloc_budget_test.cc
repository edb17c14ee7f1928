// Allocation budget of the remote I/O path: once a closed loop has
// reached steady state, an I/O from IoSession::Read/Write or
// BlockDevice::ReadBytes to the flash device and back performs no heap
// allocation at all, a PageCache miss allocates no page buffer, and a
// frame joining a sim::FrameSet allocates nothing. This binary replaces
// the global operator new and delete with counting versions, so it must
// stay its own executable.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "client/block_device.h"
#include "client/page_cache.h"
#include "client/reflex_client.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "testing/harness.h"

namespace {
// Heap allocations through any global operator new since start-up.
int64_t g_allocations = 0;
}  // namespace

// Where the pools pass through (ASan, REFLEX_CORO_DEBUG) the tests skip,
// and the sanitizer keeps its own operator new.
#ifndef REFLEX_POOL_PASSTHROUGH
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace reflex::client {
namespace {

constexpr uint32_t kPageBytes = 4096;
constexpr uint32_t kPageSectors = kPageBytes / core::kSectorBytes;
// Every worker cycles over its own few pages, all written during
// warm-up, so the device's page store stops growing.
constexpr uint64_t kPagesPerWorker = 8;
// Page-cache loops: each worker cycles over this many pages, twice the
// cache's capacity, so LRU evicts every page before it comes round.
constexpr uint32_t kCacheCapacityPages = 16;
constexpr uint64_t kCachePagesPerWorker = 2 * kCacheCapacityPages;

struct LoopState {
  bool stop = false;
  int live_workers = 0;
  int64_t completed = 0;
  int64_t failed = 0;
};

// Closed loop on one lane: alternating 4 KiB writes and reads of the
// worker's own pages, each from/into the worker's buffer.
sim::Task SessionWorker(IoSession* session, int lane, int index,
                        LoopState* state) {
  ++state->live_workers;
  std::vector<uint8_t> buffer(kPageBytes, static_cast<uint8_t>(index));
  const uint64_t base = static_cast<uint64_t>(index) * kPagesPerWorker;
  for (uint64_t i = 0; !state->stop; ++i) {
    const uint64_t lba = (base + i % kPagesPerWorker) * kPageSectors;
    IoResult r;
    if (i % 2 == 0) {
      r = co_await session->Write(lba, kPageSectors, buffer.data(), lane);
    } else {
      r = co_await session->Read(lba, kPageSectors, buffer.data(), lane);
    }
    ++state->completed;
    if (!r.ok()) ++state->failed;
  }
  --state->live_workers;
}

sim::Task BlockWorker(BlockDevice* bdev, int index, LoopState* state) {
  ++state->live_workers;
  std::vector<uint8_t> buffer(kPageBytes);
  const uint64_t base = static_cast<uint64_t>(index) * kPagesPerWorker;
  for (uint64_t i = 0; !state->stop; ++i) {
    const uint64_t offset = (base + i % kPagesPerWorker) * kPageBytes;
    const IoResult r = co_await bdev->ReadBytes(offset, kPageBytes,
                                                buffer.data());
    ++state->completed;
    if (!r.ok()) ++state->failed;
  }
  --state->live_workers;
}

// Closed loop of page-cache misses: the worker cycles over its own
// pages, more of them than the cache holds, so every GetPage misses.
sim::Task CacheWorker(PageCache* cache, int index, LoopState* state) {
  ++state->live_workers;
  const uint64_t base = static_cast<uint64_t>(index) * kCachePagesPerWorker;
  for (uint64_t i = 0; !state->stop; ++i) {
    const uint64_t page = base + i % kCachePagesPerWorker;
    const uint8_t* data = co_await cache->GetPage(page * kPageBytes);
    ++state->completed;
    if (data == nullptr) ++state->failed;
  }
  --state->live_workers;
}

/** Heap allocations per completed I/O over a steady-state window. */
struct Window {
  int64_t allocations = 0;
  int64_t ios = 0;
};

Window MeasureSteadyState(testing::Harness& h, LoopState& state) {
  // Warm-up: every pool, ring and slab reaches its high-water mark.
  h.sim.RunUntil(h.sim.Now() + sim::Millis(200));
  const int64_t allocs_before = g_allocations;
  const int64_t ios_before = state.completed;
  h.sim.RunUntil(h.sim.Now() + sim::Millis(200));
  Window w{g_allocations - allocs_before, state.completed - ios_before};
  // Let the loops finish so no frame is left parked.
  state.stop = true;
  h.RunUntilReady([&state] { return state.live_workers == 0; });
  return w;
}

class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (sim::kPoolPassThrough) {
      GTEST_SKIP() << "pools pass through to operator new under ASan and "
                      "REFLEX_CORO_DEBUG";
    }
  }
};

TEST_F(AllocBudgetTest, SessionReadWriteLoopAllocatesNothingPerIo) {
  testing::Harness h;  // one dataplane thread
  core::Tenant* tenant = h.LcTenant();
  ReflexClient::Options options = testing::RetryingClientOptions();
  options.num_connections = 4;
  ReflexClient client(h.sim, h.server, h.client_machine, options);
  std::unique_ptr<TenantSession> session =
      client.AttachSession(tenant->handle());
  ASSERT_NE(session, nullptr);

  LoopState state;
  for (int i = 0; i < 8; ++i) SessionWorker(session.get(), i % 4, i, &state);
  const Window w = MeasureSteadyState(h, state);
  EXPECT_EQ(state.failed, 0);
  ASSERT_GT(w.ios, 1000);
  EXPECT_EQ(w.allocations, 0)
      << static_cast<double>(w.allocations) / static_cast<double>(w.ios)
      << " heap allocations per I/O over " << w.ios << " I/Os";
}

TEST_F(AllocBudgetTest, BlockDeviceReadBytesAllocatesNothingPerIo) {
  testing::Harness h;
  core::Tenant* tenant = h.LcTenant();
  BlockDevice::Options options;
  options.num_contexts = 2;
  BlockDevice bdev(h.sim, h.server, h.client_machine, tenant->handle(),
                   options);

  LoopState state;
  for (int i = 0; i < 4; ++i) BlockWorker(&bdev, i, &state);
  const Window w = MeasureSteadyState(h, state);
  EXPECT_EQ(state.failed, 0);
  ASSERT_GT(w.ios, 1000);
  EXPECT_EQ(w.allocations, 0)
      << static_cast<double>(w.allocations) / static_cast<double>(w.ios)
      << " heap allocations per I/O over " << w.ios << " I/Os";
}

TEST_F(AllocBudgetTest, PageCacheMissReusesEvictedBuffers) {
  testing::Harness h;
  core::Tenant* tenant = h.LcTenant();
  BlockDevice bdev(h.sim, h.server, h.client_machine, tenant->handle(),
                   BlockDevice::Options());
  PageCache cache(h.sim, bdev, kCacheCapacityPages, /*max_outstanding=*/4);

  LoopState state;
  for (int i = 0; i < 2; ++i) CacheWorker(&cache, i, &state);
  const Window w = MeasureSteadyState(h, state);
  EXPECT_EQ(state.failed, 0);
  EXPECT_EQ(cache.stats().hits, 0);
  ASSERT_GT(w.ios, 1000);
  // Per miss: the page-table node, the LRU node and the waiter list of
  // the in-flight entry. The 4 KiB page buffer is an evicted page's.
  EXPECT_LE(w.allocations, 3 * w.ios)
      << static_cast<double>(w.allocations) / static_cast<double>(w.ios)
      << " heap allocations per miss over " << w.ios << " misses";
}

// Joins `frames`, parks on a Delay and returns.
sim::Task JoinAndPark(sim::FrameSet* frames, sim::Simulator* sim,
                      sim::TimeNs delay) {
  auto self = co_await frames->Join();
  co_await sim::Delay(*sim, delay);
}

TEST_F(AllocBudgetTest, FrameSetJoinAndFinishAllocateNothing) {
  sim::Simulator sim;
  sim::FrameSet frames;
  // Eight frames per round, parked side by side and finishing out of
  // join order, so frames unlink from the middle of the set.
  constexpr int kFramesPerRound = 8;
  auto round = [&] {
    for (int i = 0; i < kFramesPerRound; ++i) {
      JoinAndPark(&frames, &sim, 1 + (i * 5) % kFramesPerRound);
    }
    sim.Run();
  };
  for (int i = 0; i < 100; ++i) round();  // warm-up
  const int64_t allocs_before = g_allocations;
  constexpr int kCycles = 10000;
  for (int i = 0; i < kCycles / kFramesPerRound; ++i) round();
  EXPECT_EQ(g_allocations - allocs_before, 0)
      << "heap allocations over " << kCycles << " join/finish cycles";
  EXPECT_TRUE(frames.empty());
}

}  // namespace
}  // namespace reflex::client
