#include "client/page_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "baseline/local_spdk.h"
#include "client/storage_backend.h"
#include "flash/flash_device.h"
#include "sim/fault.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::client {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheTest()
      : device_(sim_, flash::DeviceProfile::DeviceA(), 3),
        local_(sim_, device_, baseline::LocalSpdkService::Options{}),
        backend_(local_) {}

  void WritePattern(uint64_t page, uint8_t fill) {
    std::vector<uint8_t> buf(4096, fill);
    auto f = backend_.WriteBytes(page * 4096, 4096, buf.data());
    sim_.Run();
    ASSERT_TRUE(f.Ready() && f.Get().ok());
  }

  sim::Simulator sim_;
  flash::FlashDevice device_;
  baseline::LocalSpdkService local_;
  SessionStorageBackend backend_;
};

TEST_F(PageCacheTest, MissThenHit) {
  WritePattern(5, 0xAB);
  PageCache cache(sim_, backend_, 16);
  auto f1 = cache.GetPage(5 * 4096);
  sim_.Run();
  ASSERT_TRUE(f1.Ready());
  EXPECT_EQ(f1.Get()[0], 0xAB);
  EXPECT_EQ(cache.stats().misses, 1);
  auto f2 = cache.GetPage(5 * 4096 + 100);  // same page
  sim_.Run();
  ASSERT_TRUE(f2.Ready());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST_F(PageCacheTest, ConcurrentFetchesDeduplicated) {
  WritePattern(9, 0x7);
  PageCache cache(sim_, backend_, 16);
  auto f1 = cache.GetPage(9 * 4096);
  auto f2 = cache.GetPage(9 * 4096);
  auto f3 = cache.GetPage(9 * 4096);
  sim_.Run();
  ASSERT_TRUE(f1.Ready() && f2.Ready() && f3.Ready());
  EXPECT_EQ(cache.stats().misses, 1) << "one Flash read serves all three";
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST_F(PageCacheTest, LruEviction) {
  PageCache cache(sim_, backend_, 4);
  for (uint64_t p = 0; p < 8; ++p) {
    auto f = cache.GetPage(p * 4096);
    sim_.Run();
  }
  EXPECT_EQ(cache.stats().misses, 8);
  EXPECT_GT(cache.stats().evictions, 0);
  // Recently used pages are still cached; the oldest are not.
  auto recent = cache.GetPage(7 * 4096);
  sim_.Run();
  EXPECT_EQ(cache.stats().hits, 1);
  auto old = cache.GetPage(0);
  sim_.Run();
  EXPECT_EQ(cache.stats().misses, 9);
}

TEST_F(PageCacheTest, InvalidateDropsPages) {
  WritePattern(3, 0x11);
  PageCache cache(sim_, backend_, 16);
  auto f1 = cache.GetPage(3 * 4096);
  sim_.Run();
  EXPECT_EQ(f1.Get()[0], 0x11);
  // New data lands; without invalidation the cache would stay stale.
  WritePattern(3, 0x22);
  cache.Invalidate(3 * 4096, 4096);
  auto f2 = cache.GetPage(3 * 4096);
  sim_.Run();
  EXPECT_EQ(f2.Get()[0], 0x22);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST_F(PageCacheTest, InvalidateCoversInFlightFetch) {
  WritePattern(6, 0xAA);
  PageCache cache(sim_, backend_, 16);
  // Start a fetch but do not run the simulator: the Flash read has
  // snapshotted the old contents and is now in flight.
  auto f = cache.GetPage(6 * 4096);
  ASSERT_FALSE(f.Ready());
  // New data lands (the store is updated at submit time) and the range
  // is invalidated while the old read is still outstanding.
  std::vector<uint8_t> buf(4096, 0xBB);
  auto w = backend_.WriteBytes(6 * 4096, 4096, buf.data());
  cache.Invalidate(6 * 4096, 4096);
  sim_.Run();
  ASSERT_TRUE(w.Ready() && w.Get().ok());
  ASSERT_TRUE(f.Ready());
  ASSERT_NE(f.Get(), nullptr);
  EXPECT_EQ(f.Get()[0], 0xBB)
      << "the outstanding fetch must re-read the backend instead of "
         "inserting pre-invalidation data";
  EXPECT_EQ(cache.stats().invalidated_refetches, 1);

  // The refetched page is genuinely cached (no stale residue).
  auto again = cache.GetPage(6 * 4096);
  sim_.Run();
  EXPECT_EQ(again.Get()[0], 0xBB);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST_F(PageCacheTest, FetchRetriesBeforeSurfacingFailure) {
  // max_attempts = 1 => a failed backend read surfaces immediately as
  // nullptr instead of panicking (callers decide whether it is fatal).
  PageCache::RetryPolicy retry;
  retry.max_attempts = 1;
  PageCache cache(sim_, backend_, 16, 64, 0, retry);
  sim::FaultPlan plan(sim_, 11);
  device_.SetFaultPlan(&plan);
  plan.SetProbability(sim::FaultKind::kFlashReadError, 1.0);
  auto f = cache.GetPage(2 * 4096);
  sim_.Run();
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(f.Get(), nullptr);
  EXPECT_EQ(cache.stats().fetch_failures, 1);

  // With retries and the fault cleared mid-backoff, the same fetch
  // succeeds and counts its retry.
  plan.SetProbability(sim::FaultKind::kFlashReadError, 0.0);
  auto f2 = cache.GetPage(2 * 4096);
  sim_.Run();
  ASSERT_TRUE(f2.Ready());
  EXPECT_NE(f2.Get(), nullptr);
}

TEST_F(PageCacheTest, BoundsOutstandingIo) {
  PageCache cache(sim_, backend_, 256, /*max_outstanding=*/2);
  for (uint64_t p = 0; p < 50; ++p) cache.GetPage(p * 4096);
  sim_.Run();
  EXPECT_EQ(cache.stats().misses, 50);
}

// ---------------------------------------------------------------------
// Pinned golden: a seeded bare-cache trace (capacity 8, 2 I/O slots,
// readahead 8) mixing sequential runs, random pages, concurrent
// GetPages on one in-flight page, and Invalidate of resident pages and
// of pages mid-fetch. After every operation the trace records the full
// Stats struct and the first byte of every page resolved since the
// previous operation; at the end it records the LRU eviction order.
// testdata/page_cache_golden.txt was recorded from the map-and-set
// cache that the single hashed page table replaced.
// ---------------------------------------------------------------------

constexpr uint64_t kTracePages = 96;
constexpr int kTraceOps = 300;
constexpr uint32_t kTraceCapacity = 8;
/** First page of the never-traced range used to push out LRU pages. */
constexpr uint64_t kFreshPage = 4096;

std::string Fmt(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

std::string StatsLine(const PageCache::Stats& s) {
  return Fmt("  stats %" PRId64 " %" PRId64 " %" PRId64 " %" PRId64
             " %" PRId64 " %" PRId64 " %" PRId64,
             s.hits, s.misses, s.evictions, s.readaheads, s.fetch_retries,
             s.fetch_failures, s.invalidated_refetches);
}

std::string Resolution(int id, uint64_t page_id, const uint8_t* data) {
  return data == nullptr
             ? Fmt("  get#%d page %" PRIu64 " -> null", id, page_id)
             : Fmt("  get#%d page %" PRIu64 " -> %02x", id, page_id, data[0]);
}

/** Logs the first byte of a page the moment its GetPage resolves. */
sim::Task RecordResolution(sim::Future<const uint8_t*> page, int id,
                           uint64_t page_id, std::vector<std::string>* log) {
  const uint8_t* data = co_await page;
  log->push_back(Resolution(id, page_id, data));
}

/** How the trace reads a page. */
enum class GetMode {
  kGetPage,      // GetPage, first byte logged on resolution
  kTryFirst,     // TryGetResident, falling back to GetPage on nullptr
  kPrefetch,     // Prefetch, nothing logged
  kDiscardFuture,  // GetPage with the future dropped, nothing logged
};

/** One simulated world with a cache over a pre-filled LocalSpdk device. */
struct TraceWorld {
  explicit TraceWorld(GetMode get_mode)
      : mode(get_mode),
        device(sim, flash::DeviceProfile::DeviceA(), 3),
        local(sim, device, baseline::LocalSpdkService::Options{}),
        backend(local),
        cache(sim, backend, kTraceCapacity, /*max_outstanding=*/2,
              /*readahead_pages=*/8) {
    for (uint64_t p = 0; p < kTracePages; ++p) {
      fill[p] = static_cast<uint8_t>(p * 7 + 1);
    }
    for (uint64_t p = 0; p < kTracePages; ++p) Write(p);
    sim.Run();
  }

  /** Writes page p's current fill; the store updates at submit time. */
  void Write(uint64_t p) {
    buffers.push_back(std::vector<uint8_t>(PageCache::kPageBytes, fill[p]));
    backend.WriteBytes(p * PageCache::kPageBytes, PageCache::kPageBytes,
                       buffers.back().data());
  }

  void Get(uint64_t p) {
    const int id = next_id++;
    const uint64_t byte = p * PageCache::kPageBytes + 12;
    switch (mode) {
      case GetMode::kGetPage:
        RecordResolution(cache.GetPage(byte), id, p, &log);
        break;
      case GetMode::kTryFirst:
        if (const uint8_t* data = cache.TryGetResident(byte)) {
          log.push_back(Resolution(id, p, data));
        } else {
          RecordResolution(cache.GetPage(byte), id, p, &log);
        }
        break;
      case GetMode::kPrefetch:
        cache.Prefetch(byte);
        break;
      case GetMode::kDiscardFuture:
        cache.GetPage(byte);
        break;
    }
  }

  void RunFor(sim::TimeNs d) { sim.RunUntil(sim.Now() + d); }

  /** Rewrites pages [first, first + n) and invalidates them. */
  void Rewrite(uint64_t first, uint64_t n) {
    for (uint64_t p = first; p < first + n; ++p) {
      ++fill[p];
      Write(p);
    }
    cache.Invalidate(first * PageCache::kPageBytes + 5,
                     n * PageCache::kPageBytes - 5);
  }

  GetMode mode;
  sim::Simulator sim;
  flash::FlashDevice device;
  baseline::LocalSpdkService local;
  SessionStorageBackend backend;
  PageCache cache;
  std::array<uint8_t, kTracePages> fill{};
  std::deque<std::vector<uint8_t>> buffers;
  std::vector<std::string> log;
  int next_id = 0;
};

/** Runs the seeded trace on `w`, then drains the simulator. */
void RunTrace(TraceWorld& w, std::vector<std::string>* out) {
  sim::Rng rng(20261017, "page_cache_golden");
  for (int op = 0; op < kTraceOps; ++op) {
    const uint64_t kind = rng.NextBounded(100);
    const uint64_t p = rng.NextBounded(kTracePages);
    std::string desc;
    if (kind < 25) {
      const uint64_t start = rng.NextBounded(kTracePages - 12);
      const uint64_t len = 3 + rng.NextBounded(8);
      desc = Fmt("seq %" PRIu64 "+%" PRIu64, start, len);
      for (uint64_t q = start; q < start + len; ++q) {
        w.Get(q);
        w.RunFor(sim::TimeNs(rng.NextBounded(40'000)));
      }
    } else if (kind < 45) {
      desc = Fmt("get %" PRIu64, p);
      w.Get(p);
    } else if (kind < 55) {
      desc = Fmt("get3 %" PRIu64, p);
      for (int i = 0; i < 3; ++i) w.Get(p);
    } else if (kind < 65) {
      const uint64_t n = 1 + rng.NextBounded(std::min<uint64_t>(
                                 3, kTracePages - p));
      desc = Fmt("invalidate %" PRIu64 "+%" PRIu64, p, n);
      w.Rewrite(p, n);
    } else if (kind < 75) {
      const sim::TimeNs d = sim::TimeNs(rng.NextBounded(30'000));
      desc = Fmt("get-invalidate %" PRIu64 " after %" PRId64, p, d);
      w.Get(p);
      w.RunFor(d);
      w.Rewrite(p, 1);
    } else if (kind < 92) {
      const sim::TimeNs d = sim::TimeNs(rng.NextBounded(200'000));
      desc = Fmt("run %" PRId64, d);
      w.RunFor(d);
    } else {
      desc = "drain";
      w.sim.Run();
    }
    if (out == nullptr) continue;
    out->push_back(Fmt("op %d %s", op, desc.c_str()));
    for (std::string& line : w.log) out->push_back(std::move(line));
    out->push_back(StatsLine(w.cache.stats()));
    w.log.clear();
  }
  w.sim.Run();
  if (out == nullptr) return;
  for (std::string& line : w.log) out->push_back(std::move(line));
  out->push_back(StatsLine(w.cache.stats()));
  w.log.clear();
}

/**
 * Traced pages resident after replaying the trace and then pushing
 * `fresh` never-traced pages through the cache. A GetPage resolves
 * synchronously exactly when its page is resident, so probing every
 * traced page without running the simulator reads the resident set
 * without evicting anything.
 */
std::vector<uint64_t> ResidentAfter(GetMode mode, int fresh) {
  TraceWorld w(mode);
  RunTrace(w, nullptr);
  for (int i = 0; i < fresh; ++i) {
    // Stride 2: fresh misses never look sequential, so no readahead.
    w.cache.GetPage((kFreshPage + 2 * static_cast<uint64_t>(i)) *
                    PageCache::kPageBytes);
    w.sim.Run();
  }
  std::vector<uint64_t> resident;
  for (uint64_t p = 0; p < kTracePages; ++p) {
    if (w.cache.GetPage(p * PageCache::kPageBytes).Ready()) {
      resident.push_back(p);
    }
  }
  w.sim.Run();
  return resident;
}

std::vector<std::string> GoldenTrace(GetMode mode) {
  std::vector<std::string> lines;
  TraceWorld w(mode);
  RunTrace(w, &lines);
  // LRU order: the page each successive fresh insertion evicts.
  std::vector<uint64_t> before = ResidentAfter(mode, 0);
  std::string resident = "resident";
  for (uint64_t p : before) resident += Fmt(" %" PRIu64, p);
  lines.push_back(resident);
  for (int k = 1; k <= static_cast<int>(kTraceCapacity); ++k) {
    const std::vector<uint64_t> after = ResidentAfter(mode, k);
    std::string evicted = Fmt("evict %d:", k);
    for (uint64_t p : before) {
      if (!std::binary_search(after.begin(), after.end(), p)) {
        evicted += Fmt(" %" PRIu64, p);
      }
    }
    lines.push_back(evicted);
    before = after;
  }
  return lines;
}

std::vector<std::string> ReadGolden() {
  std::vector<std::string> lines;
  std::ifstream in(REFLEX_TESTDATA_DIR "/page_cache_golden.txt");
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void ExpectMatchesGolden(const std::vector<std::string>& lines) {
  const std::vector<std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing testdata/page_cache_golden.txt";
  for (size_t i = 0; i < lines.size(); ++i) {
    ASSERT_LT(i, golden.size()) << "golden ends before: " << lines[i];
    ASSERT_EQ(lines[i], golden[i]) << "first diverging line " << i;
  }
  EXPECT_EQ(lines.size(), golden.size());
}

TEST(PageCacheGoldenTest, TraceMatchesGolden) {
  ExpectMatchesGolden(GoldenTrace(GetMode::kGetPage));
}

TEST(PageCacheGoldenTest, TryGetResidentWithFallbackMatchesGolden) {
  // Resident pages resolve synchronously either way, so trying the hit
  // path first must reproduce every line, resolution order included.
  ExpectMatchesGolden(GoldenTrace(GetMode::kTryFirst));
}

TEST(PageCacheGoldenTest, PrefetchMatchesDiscardedGetPage) {
  // Every counter after every operation, and the final LRU order.
  const std::vector<std::string> prefetch = GoldenTrace(GetMode::kPrefetch);
  const std::vector<std::string> discard =
      GoldenTrace(GetMode::kDiscardFuture);
  ASSERT_EQ(prefetch.size(), discard.size());
  for (size_t i = 0; i < prefetch.size(); ++i) {
    ASSERT_EQ(prefetch[i], discard[i]) << "first diverging line " << i;
  }
  // Neither logs resolutions; everything else is the golden itself.
  std::vector<std::string> golden;
  for (const std::string& line : ReadGolden()) {
    if (line.rfind("  get#", 0) != 0) golden.push_back(line);
  }
  EXPECT_EQ(prefetch, golden);
}

TEST_F(PageCacheTest, TryGetResidentMissHasNoSideEffects) {
  WritePattern(4, 0x44);
  PageCache cache(sim_, backend_, 16);
  EXPECT_EQ(cache.TryGetResident(4 * 4096), nullptr);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0);
  auto f = cache.GetPage(4 * 4096);
  EXPECT_EQ(cache.TryGetResident(4 * 4096), nullptr) << "in flight";
  EXPECT_EQ(cache.stats().hits, 0);
  sim_.Run();
  const uint8_t* page = cache.TryGetResident(4 * 4096 + 8);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page, f.Get());
  EXPECT_EQ(page[0], 0x44);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace reflex::client
