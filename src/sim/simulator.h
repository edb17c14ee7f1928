#ifndef REFLEX_SIM_SIMULATOR_H_
#define REFLEX_SIM_SIMULATOR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace reflex::sim {

class Simulator;

/**
 * Handle to one scheduled event, returned by ScheduleAt/ScheduleAfter
 * and consumed by Simulator::Cancel(). Handles are cheap value types;
 * a default-constructed handle is inert. A handle stays valid until
 * its event fires or is cancelled; after that Cancel() is a safe no-op
 * (the slab slot's generation counter detects reuse).
 */
class TimerHandle {
 public:
  TimerHandle() = default;

  /** True if this handle was issued for a scheduled event (it may have
   * fired since; only Cancel() can tell). */
  bool issued() const { return index_ != kNil; }

 private:
  friend class Simulator;
  static constexpr uint32_t kNil = ~uint32_t{0};

  TimerHandle(uint32_t index, uint64_t gen) : index_(index), gen_(gen) {}

  uint32_t index_ = kNil;
  uint64_t gen_ = 0;
};

/**
 * Deterministic discrete-event simulator.
 *
 * Events are kept in a hierarchical timer wheel: a near wheel of
 * kL0Slots one-nanosecond buckets plus coarser overflow levels that
 * cascade into it as time advances. Event nodes live in a slab with a
 * freelist (no per-event heap allocation) and store their callbacks
 * inline when they fit in kInlineCallbackBytes, so the hot
 * schedule/dispatch path never touches the allocator.
 *
 * Determinism contract: events execute in ascending (time, seq) order,
 * where seq is the order ScheduleAt/ScheduleAfter was called. Events
 * scheduled for the same timestamp therefore run FIFO, which makes
 * every run bit-reproducible given the same seeds. The wheel preserves
 * this exactly: every one-nanosecond near-wheel bucket holds events of
 * a single timestamp and is kept ordered by seq even when overflow
 * levels cascade into it.
 *
 * Stop() is sticky: it makes the *next* (or current) Run()/RunUntil()
 * return after at most the event in flight, and is consumed by that
 * return. A stop requested outside the loop is not lost (historical
 * bug: Run() used to clear the flag on entry).
 *
 * The simulator is strictly single-threaded; simulated parallelism
 * (server threads, client machines, Flash dies) is expressed as
 * interleaved events.
 */
class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /** Current simulated time. */
  TimeNs Now() const { return now_; }

  /**
   * Schedules `fn` to run at absolute time `t` (>= Now()). Returns a
   * handle that can cancel the event before it fires.
   */
  template <typename F>
  TimerHandle ScheduleAt(TimeNs t, F&& fn) {
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>>,
                  "event callbacks must be callable as void()");
    using Fn = std::decay_t<F>;
    const uint32_t idx = AllocAndInsert(t);
    Node& n = NodeAt(idx);
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(n.storage)) Fn(std::forward<F>(fn));
      n.run = [](void* p) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(p));
        (*f)();
        f->~Fn();
      };
      n.destroy = [](void* p) {
        std::launder(reinterpret_cast<Fn*>(p))->~Fn();
      };
    } else {
      // Oversized callable: the inline buffer holds a pointer instead.
      ::new (static_cast<void*>(n.storage)) Fn*(new Fn(std::forward<F>(fn)));
      n.run = [](void* p) {
        Fn* f = *std::launder(reinterpret_cast<Fn**>(p));
        (*f)();
        delete f;
      };
      n.destroy = [](void* p) {
        delete *std::launder(reinterpret_cast<Fn**>(p));
      };
    }
    return TimerHandle(idx, n.gen);
  }

  /** Schedules `fn` to run `delay` after Now(). */
  template <typename F>
  TimerHandle ScheduleAfter(TimeNs delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /**
   * Cancels the event behind `handle` if it has not fired yet. Returns
   * true and releases the event (callback destroyed, never invoked) on
   * success; returns false if the event already fired, was already
   * cancelled, or the handle is inert. The handle is reset either way.
   * Cancellation is eager: the node is unlinked immediately, so
   * PendingEvents() never counts cancelled-but-uncollected timers.
   */
  bool Cancel(TimerHandle& handle);

  /** Runs until the event queue is empty or Stop() is consumed. */
  void Run();

  /**
   * Runs all events with timestamp <= t, then sets Now() to t.
   * Returns the number of events processed by this call.
   *
   * Stop-path post-conditions (see StopHaltsRunUntil* tests): when the
   * loop exits because Stop() was requested, Now() stays at the
   * timestamp of the last event dispatched (it is NOT advanced to t),
   * the return value still counts every event dispatched by this call,
   * EventsProcessed() advanced by exactly that count, and
   * PendingEvents() counts precisely the live (uncancelled) events
   * still queued -- including any with timestamps <= t that the stop
   * left behind. A stop requested before entry is consumed by an
   * immediate return of 0 with Now() unchanged.
   */
  int64_t RunUntil(TimeNs t);

  /**
   * Requests that Run()/RunUntil() return after the current event.
   * Sticky: if no loop is active, the next Run()/RunUntil() consumes
   * the request by returning immediately.
   */
  void Stop() { stopped_ = true; }

  /** True while a Stop() request is pending (not yet consumed). */
  bool StopRequested() const { return stopped_; }

  /** Total events processed since construction. */
  int64_t EventsProcessed() const { return events_processed_; }

  /** Number of events currently pending (excludes cancelled events). */
  size_t PendingEvents() const { return live_events_; }

  /** High-water mark of PendingEvents() since construction. */
  size_t PeakPendingEvents() const { return peak_live_events_; }

 private:
  // --- Wheel geometry -------------------------------------------------
  // Level 0 buckets are exactly one nanosecond wide, so a bucket holds
  // events of a single timestamp and FIFO order within a bucket is
  // total dispatch order. Overflow levels are 64x coarser each and
  // cascade downward as the wheel position advances.
  static constexpr int kL0Bits = 12;                  // 4096 ns near window
  static constexpr uint32_t kL0Slots = 1u << kL0Bits;
  static constexpr int kLevelBits = 6;                // 64 slots per level
  static constexpr uint32_t kLevelSlots = 1u << kLevelBits;
  static constexpr int kNumLevels = 10;  // covers deltas up to 2^66 ns
  static constexpr uint32_t kNumSlots =
      kL0Slots + (kNumLevels - 1) * kLevelSlots;
  static constexpr uint32_t kNilIndex = ~uint32_t{0};
  static constexpr TimeNs kMaxTime = INT64_MAX;
  /**
   * Inline callback budget, sized to the largest callable on the I/O
   * path: a request's network delivery event, which carries a whole
   * core::RequestMsg (TcpConnection's in-flight wrapper around
   * ServerConnection::Deliver's [thread, conn, msg]). Larger callables
   * still work but cost one heap allocation each.
   */
  static constexpr size_t kInlineCallbackBytes = 144;
  static constexpr uint32_t kChunkSize = 1024;  // nodes per slab chunk

  struct Node {
    TimeNs time = 0;
    uint64_t seq = 0;
    /** Bumped when the node leaves the wheel; stale handles mismatch. */
    uint64_t gen = 0;
    uint32_t prev = kNilIndex;
    uint32_t next = kNilIndex;
    /** Wheel slot currently holding the node (valid while pending). */
    uint32_t slot = 0;
    bool pending = false;
    /** Invokes the callback, then destroys it (dispatch path). */
    void (*run)(void*) = nullptr;
    /** Destroys the callback without invoking (cancel/teardown path). */
    void (*destroy)(void*) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };

  struct Slot {
    uint32_t head = kNilIndex;
    uint32_t tail = kNilIndex;
  };

  static constexpr int ShiftFor(int level) {
    return kL0Bits + kLevelBits * (level - 1);
  }
  static constexpr uint32_t SlotBase(int level) {
    return level == 0 ? 0 : kL0Slots + kLevelSlots * (level - 1);
  }

  Node& NodeAt(uint32_t idx) { return chunks_[idx / kChunkSize][idx % kChunkSize]; }
  const Node& NodeAt(uint32_t idx) const {
    return chunks_[idx / kChunkSize][idx % kChunkSize];
  }

  /** Allocates a slab node for time `t` (panics if t < Now()) and
   * links it into the wheel. Callback fields are left for the caller. */
  uint32_t AllocAndInsert(TimeNs t);
  /** Places node `idx` into the wheel by its time, relative to pos_. */
  void InsertNode(uint32_t idx);
  /** Unlinks a pending node from its slot, clearing bitmap bits. */
  void Unlink(Node& n);
  /** Returns the node to the freelist (generation already advanced). */
  void FreeNode(uint32_t idx);

  /**
   * Finds the earliest pending event with timestamp <= limit,
   * cascading overflow slots into lower levels as needed (never past
   * the limit, so pos_ cannot overtake the caller's clock). On
   * success, *due is its timestamp and *l0_slot the near-wheel slot
   * holding it. Returns false when no event is due within the limit.
   */
  bool NextDue(TimeNs limit, TimeNs* due, uint32_t* l0_slot);
  /** Redistributes one overflow slot into lower levels. */
  void CascadeSlot(int level, uint32_t ring);
  /** Dispatches the whole near-wheel slot (all same timestamp), honoring
   * Stop() between events. Returns the number of events run. */
  int64_t DispatchSlot(TimeNs t, uint32_t l0_slot);

  void SetOccupied(uint32_t slot_id);
  void ClearOccupied(uint32_t slot_id);
  uint32_t FindL0From(uint32_t from) const;

  TimeNs now_ = 0;
  /**
   * Wheel position: the absolute time the wheel is anchored at.
   * Invariants: pos_ <= now_ <= every pending event's timestamp, and
   * every level-k entry lies within kLevelSlots (kL0Slots for k=0)
   * granules of pos_, so circular slot order equals time order.
   */
  TimeNs pos_ = 0;
  uint64_t next_seq_ = 0;
  int64_t events_processed_ = 0;
  size_t live_events_ = 0;
  size_t peak_live_events_ = 0;
  bool stopped_ = false;

  std::vector<std::unique_ptr<Node[]>> chunks_;
  uint32_t free_head_ = kNilIndex;

  std::vector<Slot> slots_;  // kNumSlots entries
  uint64_t l0_words_[kL0Slots / 64] = {};
  uint64_t l0_summary_ = 0;
  uint64_t level_words_[kNumLevels - 1] = {};
  /** Bit k-1 set iff level_words_[k-1] != 0: lets NextDue() visit only
   * occupied overflow levels instead of scanning all nine. */
  uint32_t active_levels_ = 0;
  /**
   * Lower bound on the due candidate (max(slot start, pos_)) of every
   * occupied overflow slot; kMaxTime when none could matter. NextDue()
   * dispatches a near-wheel event strictly below this bound without
   * scanning the overflow levels at all. Lowered on every overflow
   * insert, tightened to the exact minimum by each full scan; a stale
   * low value (after cancels empty a slot) only costs an extra scan.
   */
  TimeNs overflow_floor_ = kMaxTime;
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_SIMULATOR_H_
