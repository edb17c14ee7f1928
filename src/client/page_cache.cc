#include "client/page_cache.h"

#include <utility>

#include "sim/logging.h"
#include "sim/pool.h"

namespace reflex::client {

PageCache::PageCache(sim::Simulator& sim, client::StorageBackend& backend,
                     uint32_t capacity_pages, int max_outstanding,
                     int readahead_pages, RetryPolicy retry)
    : sim_(sim),
      backend_(backend),
      capacity_pages_(capacity_pages),
      readahead_pages_(readahead_pages),
      retry_(retry),
      io_slots_(sim, max_outstanding) {
  REFLEX_CHECK(capacity_pages >= 1);
  REFLEX_CHECK(readahead_pages >= 0);
  REFLEX_CHECK(retry.max_attempts >= 1);
  // Resident pages plus a typical number of fetches in flight.
  table_.reserve(static_cast<size_t>(capacity_pages) +
                 static_cast<size_t>(max_outstanding));
}

sim::Future<const uint8_t*> PageCache::GetPage(uint64_t byte_offset) {
  sim::Promise<const uint8_t*> promise(sim_);
  auto future = promise.GetFuture();
  if (const uint8_t* page = Access(byte_offset / kPageBytes, &promise)) {
    promise.Set(page);
  }
  return future;
}

const uint8_t* PageCache::TryGetResident(uint64_t byte_offset) {
  const uint64_t page_id = byte_offset / kPageBytes;
  auto it = table_.find(page_id);
  if (it == table_.end() || !it->second.resident()) return nullptr;
  if (it->second.stream) {
    it = ExtendStream(page_id, it);
    // Only a backend read that completes synchronously could have
    // evicted the page; the caller's GetPage then takes the miss that
    // a lone GetPage would have taken after the same extension.
    if (it == table_.end() || !it->second.resident()) return nullptr;
  }
  return Hit(it->second);
}

void PageCache::Prefetch(uint64_t byte_offset) {
  Access(byte_offset / kPageBytes, /*waiter=*/nullptr);
}

const uint8_t* PageCache::Access(uint64_t page_id,
                                 sim::Promise<const uint8_t*>* waiter) {
  auto it = table_.find(page_id);
  if (it != table_.end() && it->second.stream) {
    it = ExtendStream(page_id, it);
  }
  if (it != table_.end()) {
    Entry& entry = it->second;
    if (entry.resident()) return Hit(entry);
    // A fetch is already outstanding; wait for it (counts as a hit:
    // one Flash access serves all waiters).
    ++stats_.hits;
    if (waiter != nullptr) entry.waiters.push_back(std::move(*waiter));
    return nullptr;
  }

  ++stats_.misses;
  // Queue the waiter first: a read that fails synchronously resolves
  // the waiters before Fetch() returns.
  Entry& entry = table_[page_id];
  if (waiter != nullptr) entry.waiters.push_back(std::move(*waiter));
  Fetch(page_id);
  // Readahead only on sequential misses (the page following a recent
  // miss), so random access patterns do not flood the device.
  bool sequential = false;
  for (uint64_t recent : recent_misses_) {
    if (page_id == recent + 1) {
      sequential = true;
      break;
    }
  }
  recent_misses_[recent_cursor_] = page_id;
  recent_cursor_ = (recent_cursor_ + 1) % recent_misses_.size();
  if (sequential) {
    for (int i = 1; i <= readahead_pages_; ++i) {
      StartFetch(page_id + static_cast<uint64_t>(i));
    }
  }
  return nullptr;
}

PageCache::PageTable::iterator PageCache::ExtendStream(
    uint64_t page_id, PageTable::iterator it) {
  // A hit on a readahead-produced page extends its stream so that
  // steady sequential consumption never stalls.
  it->second.stream = false;
  StartFetch(page_id + static_cast<uint64_t>(readahead_pages_));
  // The insertion may have rehashed the table.
  return table_.find(page_id);
}

const uint8_t* PageCache::Hit(Entry& entry) {
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, entry.lru_it);
  return entry.data.get();
}

void PageCache::StartFetch(uint64_t page_id) {
  auto [it, inserted] = table_.try_emplace(page_id);
  if (!inserted) return;
  ++stats_.readaheads;
  it->second.stream = true;
  Fetch(page_id);
}

sim::Task PageCache::Fetch(uint64_t page_id) {
  co_await io_slots_.Acquire();
  std::unique_ptr<uint8_t[]> data = TakeBuffer();
  client::IoResult r;
  int attempt = 0;
  for (;;) {
    r = co_await backend_.ReadBytes(page_id * kPageBytes, kPageBytes,
                                    data.get());
    ++attempt;
    // If the range was invalidated while this read was outstanding,
    // the buffer may hold pre-invalidation data: re-read. Does not
    // count against the failure-retry budget.
    auto it = table_.find(page_id);
    REFLEX_CHECK(it != table_.end());
    if (it->second.invalidated) {
      it->second.invalidated = false;
      ++stats_.invalidated_refetches;
      continue;
    }
    if (r.ok() || attempt >= retry_.max_attempts) break;
    ++stats_.fetch_retries;
    co_await sim::Delay(sim_, retry_.backoff);
  }
  io_slots_.Release();
  // Only this fetch erases an in-flight entry, and eviction erases
  // only resident ones, so `it` stays valid to the end.
  auto it = table_.find(page_id);
  REFLEX_CHECK(it != table_.end());
  std::vector<sim::Promise<const uint8_t*>> waiters =
      std::move(it->second.waiters);
  if (!r.ok()) {
    // Persistent failure: surface it to the waiters instead of
    // panicking the whole simulation; callers decide whether a
    // missing page is fatal.
    ++stats_.fetch_failures;
    table_.erase(it);
    ReturnBuffer(std::move(data));
    for (auto& waiter : waiters) waiter.Set(nullptr);
    co_return;
  }

  EvictIfNeeded();
  Entry& entry = it->second;
  entry.data = std::move(data);
  lru_.push_front(page_id);
  entry.lru_it = lru_.begin();
  for (auto& waiter : waiters) waiter.Set(entry.data.get());
}

void PageCache::Invalidate(uint64_t byte_offset, uint64_t bytes) {
  const uint64_t first = byte_offset / kPageBytes;
  const uint64_t last = (byte_offset + bytes + kPageBytes - 1) / kPageBytes;
  for (uint64_t page = first; page < last; ++page) {
    auto it = table_.find(page);
    if (it == table_.end()) continue;
    if (it->second.resident()) {
      lru_.erase(it->second.lru_it);
      ReturnBuffer(std::move(it->second.data));
      table_.erase(it);
      continue;
    }
    // A page being fetched right now may complete with data read
    // before this invalidation; flag it so the fetch re-reads instead
    // of inserting stale bytes. Also forget any readahead-stream
    // claim on the range.
    it->second.stream = false;
    it->second.invalidated = true;
  }
}

void PageCache::EvictIfNeeded() {
  while (lru_.size() >= capacity_pages_) {
    auto it = table_.find(lru_.back());
    ReturnBuffer(std::move(it->second.data));
    table_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::unique_ptr<uint8_t[]> PageCache::TakeBuffer() {
  if (spare_buffers_.empty()) {
    // Left uninitialised: a successful read fills the whole page, and
    // the buffer of a failed fetch goes back to the spares unread.
    return std::make_unique_for_overwrite<uint8_t[]>(kPageBytes);
  }
  std::unique_ptr<uint8_t[]> data = std::move(spare_buffers_.back());
  spare_buffers_.pop_back();
  return data;
}

void PageCache::ReturnBuffer(std::unique_ptr<uint8_t[]> data) {
  // Under ASan a recycled buffer would hide a read through a pointer
  // kept past eviction, so there the buffer is freed, as sim/pool.h
  // does for its blocks.
  if (sim::kPoolPassThrough) return;
  spare_buffers_.push_back(std::move(data));
}

}  // namespace reflex::client
