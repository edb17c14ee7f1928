#ifndef REFLEX_CLIENT_PAGE_CACHE_H_
#define REFLEX_CLIENT_PAGE_CACHE_H_

#include <cstdint>
#include <array>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "client/storage_backend.h"
#include "sim/task.h"
#include "sim/time.h"

namespace reflex::client {

/**
 * A read-through LRU page cache over a storage backend, in the spirit
 * of SAFS (the user-space filesystem FlashX uses): fixed 4KB pages,
 * bounded outstanding I/O, and request deduplication so that
 * concurrent readers of one page trigger a single Flash access.
 */
class PageCache {
 public:
  static constexpr uint32_t kPageBytes = 4096;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t readaheads = 0;
    /** Backend read retries before a fetch succeeded or gave up. */
    int64_t fetch_retries = 0;
    /** Fetches that exhausted retries (waiters received nullptr). */
    int64_t fetch_failures = 0;
    /** Fetches re-issued because the page was invalidated mid-fetch. */
    int64_t invalidated_refetches = 0;
  };

  /** Fetch failure policy: attempts per page before giving up. */
  struct RetryPolicy {
    int max_attempts = 3;
    sim::TimeNs backoff = sim::Micros(200);
  };

  /**
   * @param readahead_pages on a miss of page p, also fetch pages
   *        p+1 .. p+readahead_pages in the background (SAFS-style
   *        sequential readahead; 0 disables).
   */
  PageCache(sim::Simulator& sim, client::StorageBackend& backend,
            uint32_t capacity_pages, int max_outstanding,
            int readahead_pages, RetryPolicy retry);

  PageCache(sim::Simulator& sim, client::StorageBackend& backend,
            uint32_t capacity_pages, int max_outstanding = 64,
            int readahead_pages = 0)
      : PageCache(sim, backend, capacity_pages, max_outstanding,
                  readahead_pages, RetryPolicy()) {}

  /**
   * Returns a pointer to the page containing `byte_offset` (rounded
   * down to a page boundary). The pointer stays valid until the page
   * is evicted or invalidated, after which its buffer may hold another
   * page -- callers must copy out what they need before the next
   * co_await on the cache. Resolves to nullptr if the backend read
   * failed persistently (after RetryPolicy::max_attempts tries).
   */
  sim::Future<const uint8_t*> GetPage(uint64_t byte_offset);

  /**
   * Synchronous hit path. If the page is resident, does exactly what
   * GetPage does for it -- extends its readahead stream, counts the
   * hit, touches its LRU position -- and returns it, valid until
   * evicted. Otherwise returns nullptr having changed nothing a
   * GetPage(byte_offset) would not change first, so a caller that
   * falls back to GetPage on nullptr sees exactly what a lone GetPage
   * would have produced.
   */
  const uint8_t* TryGetResident(uint64_t byte_offset);

  /**
   * GetPage with the result discarded: the same hit, miss and
   * readahead accounting and the same fetch, but no waiter is queued
   * on it, so nothing wakes up when the page arrives.
   */
  void Prefetch(uint64_t byte_offset);

  /**
   * Drops any cached pages overlapping [byte_offset, byte_offset +
   * bytes). Callers must invalidate before re-using a storage range
   * for new data (e.g. the LSM store recycling a compacted extent).
   */
  void Invalidate(uint64_t byte_offset, uint64_t bytes);

  const Stats& stats() const { return stats_; }
  uint32_t capacity_pages() const { return capacity_pages_; }

 private:
  /** One page-table entry: a page that is resident or being fetched. */
  struct Entry {
    /** The page's bytes once resident; null while it is in flight. */
    std::unique_ptr<uint8_t[]> data;
    /** Position in lru_; meaningful only while resident. */
    std::list<uint64_t>::iterator lru_it;
    /** GetPage callers queued behind the in-flight fetch. */
    std::vector<sim::Promise<const uint8_t*>> waiters;
    /** Fetched by readahead and not yet hit: a hit extends the stream. */
    bool stream = false;
    /**
     * Invalidated after its fetch was issued: the outstanding read may
     * return pre-invalidation data, so the fetch re-reads the backend
     * before inserting into the cache.
     */
    bool invalidated = false;

    bool resident() const { return data != nullptr; }
  };
  // detlint: allow(unordered-container) the page table is only looked
  // up, inserted into and erased from, never iterated, so hash layout
  // can never reach event order.
  using PageTable = std::unordered_map<uint64_t, Entry>;

  /**
   * GetPage's body: extends a readahead stream, counts the hit or
   * miss, and touches or fetches the page. Returns the page if
   * resident; otherwise queues `waiter` (when non-null) on its fetch.
   */
  const uint8_t* Access(uint64_t page_id,
                        sim::Promise<const uint8_t*>* waiter);
  /**
   * Clears `it`'s stream claim and fetches the page readahead_pages_
   * past it. Returns `it` looked up afresh (end() if it is gone).
   */
  PageTable::iterator ExtendStream(uint64_t page_id, PageTable::iterator it);
  const uint8_t* Hit(Entry& entry);
  sim::Task Fetch(uint64_t page_id);
  void StartFetch(uint64_t page_id);
  void EvictIfNeeded();
  /** A page buffer for a fetch: a spare if there is one, else new. */
  std::unique_ptr<uint8_t[]> TakeBuffer();
  /** Keeps a buffer no entry holds any more as a spare. */
  void ReturnBuffer(std::unique_ptr<uint8_t[]> data);

  sim::Simulator& sim_;
  client::StorageBackend& backend_;
  uint32_t capacity_pages_;
  int readahead_pages_;
  RetryPolicy retry_;
  sim::Semaphore io_slots_;
  /** Recent miss pages, for sequential-pattern detection. */
  std::array<uint64_t, 8> recent_misses_{};
  size_t recent_cursor_ = 0;

  PageTable table_;
  std::list<uint64_t> lru_;  // resident pages, front = most recent
  /**
   * Page buffers of evicted, invalidated and failed pages, reused by
   * the next fetches: once the cache is full a miss allocates no
   * buffer.
   */
  std::vector<std::unique_ptr<uint8_t[]>> spare_buffers_;
  Stats stats_;
};

}  // namespace reflex::client

#endif  // REFLEX_CLIENT_PAGE_CACHE_H_
