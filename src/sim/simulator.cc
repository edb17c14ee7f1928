#include "sim/simulator.h"

#include "sim/coro_debug.h"
#include "sim/logging.h"

namespace reflex::sim {

namespace {

/**
 * Index of the first set bit at ring position >= from, searching
 * circularly. `from` must be in [0, 64); `word` must be nonzero.
 */
inline uint32_t NextSet64From(uint64_t word, uint32_t from) {
  const uint64_t ahead = word >> from;
  if (ahead != 0) {
    return from + static_cast<uint32_t>(std::countr_zero(ahead));
  }
  return static_cast<uint32_t>(std::countr_zero(word));
}

/** Circular distance from `from` to `to` on a ring of `size` slots. */
inline uint64_t RingDistance(uint32_t from, uint32_t to, uint32_t size) {
  return (to + size - from) & (size - 1);
}

}  // namespace

Simulator::Simulator() : slots_(kNumSlots) {}

Simulator::~Simulator() {
  // Under REFLEX_CORO_DEBUG, every coroutine frame must already be
  // destroyed: completed tasks self-destructed, parked tasks were
  // destroyed by their owners (via their sim::FrameSet) before the
  // simulator. A frame still alive here is the leak class LSan
  // cannot see -- its handle is stored, so it is reachable, yet
  // nothing will ever run or free it. Checked before callbacks are
  // torn down so the report fires ahead of any use-after-free.
  CoroDebugAssertNoLiveFrames();
  // Destroy the callbacks of events that never fired. Nodes are walked
  // through the slab rather than the wheel so the teardown cost is
  // independent of wheel state.
  for (auto& chunk : chunks_) {
    for (uint32_t i = 0; i < kChunkSize; ++i) {
      Node& n = chunk[i];
      if (n.pending) n.destroy(n.storage);
    }
  }
}

uint32_t Simulator::AllocAndInsert(TimeNs t) {
  if (t < now_) {
    REFLEX_PANIC("event scheduled in the past: t=%lld now=%lld",
                 static_cast<long long>(t), static_cast<long long>(now_));
  }
  uint32_t idx = free_head_;
  if (idx != kNilIndex) {
    free_head_ = NodeAt(idx).next;
  } else {
    idx = static_cast<uint32_t>(chunks_.size()) * kChunkSize;
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    // Thread the rest of the fresh chunk onto the freelist.
    for (uint32_t i = kChunkSize - 1; i >= 1; --i) {
      NodeAt(idx + i).next = free_head_;
      free_head_ = idx + i;
    }
  }
  Node& n = NodeAt(idx);
  n.time = t;
  n.seq = next_seq_++;
  n.pending = true;
  InsertNode(idx);
  ++live_events_;
  if (live_events_ > peak_live_events_) peak_live_events_ = live_events_;
  return idx;
}

void Simulator::InsertNode(uint32_t idx) {
  Node& n = NodeAt(idx);
  const auto delta = static_cast<uint64_t>(n.time - pos_);
  uint32_t slot_id;
  int level;
  if (delta < kL0Slots) {
    level = 0;
    slot_id = static_cast<uint32_t>(n.time) & (kL0Slots - 1);
  } else {
    const int high_bit = 63 - std::countl_zero(delta);
    level = (high_bit - kL0Bits) / kLevelBits + 1;
    if (level > kNumLevels - 1) level = kNumLevels - 1;
    // When pos_ sits mid-bucket, a delta near the top of this level's
    // range can land exactly kLevelSlots buckets ahead, aliasing the
    // ring slot that holds pos_ itself; promote such nodes one level
    // so circular slot order keeps matching time order. (At the top
    // level the distance is bounded by 8, so no promotion is needed.)
    while (level < kNumLevels - 1 &&
           (static_cast<uint64_t>(n.time) >> ShiftFor(level)) -
                   (static_cast<uint64_t>(pos_) >> ShiftFor(level)) >=
               kLevelSlots) {
      ++level;
    }
    const int shift = ShiftFor(level);
    slot_id = SlotBase(level) +
              (static_cast<uint32_t>(static_cast<uint64_t>(n.time) >> shift) &
               (kLevelSlots - 1));
    const auto start =
        static_cast<TimeNs>((static_cast<uint64_t>(n.time) >> shift) << shift);
    if (start < overflow_floor_) overflow_floor_ = start;
  }
  n.slot = slot_id;
  Slot& s = slots_[slot_id];
  if (level == 0) {
    // A level-0 bucket is one nanosecond wide, so every node in it has
    // the same timestamp and the list must stay ordered by seq: direct
    // schedules append (seq is monotonic), while cascades from
    // overflow levels may carry older sequence numbers and walk
    // backwards to their position.
    uint32_t after = s.tail;
    while (after != kNilIndex && NodeAt(after).seq > n.seq) {
      after = NodeAt(after).prev;
    }
    n.prev = after;
    if (after == kNilIndex) {
      n.next = s.head;
      s.head = idx;
    } else {
      Node& a = NodeAt(after);
      n.next = a.next;
      a.next = idx;
    }
    if (n.next == kNilIndex) {
      s.tail = idx;
    } else {
      NodeAt(n.next).prev = idx;
    }
  } else {
    // Overflow slots are unordered holding pens; order is re-derived
    // when they cascade down.
    n.prev = s.tail;
    n.next = kNilIndex;
    if (s.tail == kNilIndex) {
      s.head = idx;
    } else {
      NodeAt(s.tail).next = idx;
    }
    s.tail = idx;
  }
  SetOccupied(slot_id);
}

void Simulator::Unlink(Node& n) {
  Slot& s = slots_[n.slot];
  if (n.prev == kNilIndex) {
    s.head = n.next;
  } else {
    NodeAt(n.prev).next = n.next;
  }
  if (n.next == kNilIndex) {
    s.tail = n.prev;
  } else {
    NodeAt(n.next).prev = n.prev;
  }
  if (s.head == kNilIndex) ClearOccupied(n.slot);
}

void Simulator::FreeNode(uint32_t idx) {
  Node& n = NodeAt(idx);
  n.next = free_head_;
  free_head_ = idx;
}

void Simulator::SetOccupied(uint32_t slot_id) {
  if (slot_id < kL0Slots) {
    l0_words_[slot_id >> 6] |= uint64_t{1} << (slot_id & 63);
    l0_summary_ |= uint64_t{1} << (slot_id >> 6);
  } else {
    const uint32_t level = 1 + (slot_id - kL0Slots) / kLevelSlots;
    const uint32_t ring = (slot_id - kL0Slots) % kLevelSlots;
    level_words_[level - 1] |= uint64_t{1} << ring;
    active_levels_ |= uint32_t{1} << (level - 1);
  }
}

void Simulator::ClearOccupied(uint32_t slot_id) {
  if (slot_id < kL0Slots) {
    l0_words_[slot_id >> 6] &= ~(uint64_t{1} << (slot_id & 63));
    if (l0_words_[slot_id >> 6] == 0) {
      l0_summary_ &= ~(uint64_t{1} << (slot_id >> 6));
    }
  } else {
    const uint32_t level = 1 + (slot_id - kL0Slots) / kLevelSlots;
    const uint32_t ring = (slot_id - kL0Slots) % kLevelSlots;
    level_words_[level - 1] &= ~(uint64_t{1} << ring);
    if (level_words_[level - 1] == 0) {
      active_levels_ &= ~(uint32_t{1} << (level - 1));
    }
  }
}

uint32_t Simulator::FindL0From(uint32_t from) const {
  const uint32_t w = from >> 6;
  const uint32_t b = from & 63;
  const uint64_t first = l0_words_[w] >> b;
  if (first != 0) {
    return (w << 6) + b + static_cast<uint32_t>(std::countr_zero(first));
  }
  // The rest of word w (bits below b) belongs to the next wrap, so it
  // is circularly *last*: search the summary from w+1 and fall back to
  // the lowest set bit (which lands on w again only via full wrap).
  const uint32_t wi = NextSet64From(l0_summary_, (w + 1) & 63);
  return (wi << 6) +
         static_cast<uint32_t>(std::countr_zero(l0_words_[wi]));
}

bool Simulator::NextDue(TimeNs limit, TimeNs* due, uint32_t* l0_slot) {
  for (;;) {
    // Near-wheel candidate: exact timestamp of the earliest L0 event.
    bool have0 = false;
    TimeNs t0 = 0;
    uint32_t ring0 = 0;
    if (l0_summary_ != 0) {
      const auto cur = static_cast<uint32_t>(pos_) & (kL0Slots - 1);
      ring0 = FindL0From(cur);
      t0 = pos_ + static_cast<TimeNs>(RingDistance(cur, ring0, kL0Slots));
      have0 = true;
      // Fast path: strictly below the overflow floor no occupied
      // overflow slot can hold an earlier (or equal) event, so the
      // near-wheel event dispatches without scanning the levels.
      if (t0 < overflow_floor_) {
        if (t0 > limit) return false;
        *due = t0;
        *l0_slot = ring0;
        return true;
      }
    }

    // Overflow candidates: start time of the next occupied slot per
    // level. Any overflow slot whose window could contain an event at
    // or before t0 must cascade before t0 may dispatch, or a stale
    // upper-level event could be overtaken.
    int best_level = -1;
    uint32_t best_ring = 0;
    TimeNs best_cand = 0;
    for (uint32_t mask = active_levels_; mask != 0; mask &= mask - 1) {
      const int k = std::countr_zero(mask) + 1;
      const uint64_t word = level_words_[k - 1];
      const int shift = ShiftFor(k);
      const uint64_t cur_bucket = static_cast<uint64_t>(pos_) >> shift;
      const auto cur = static_cast<uint32_t>(cur_bucket) & (kLevelSlots - 1);
      const uint32_t ring = NextSet64From(word, cur);
      const uint64_t bucket =
          cur_bucket + RingDistance(cur, ring, kLevelSlots);
      const auto start = static_cast<TimeNs>(bucket << shift);
      const TimeNs cand = start > pos_ ? start : pos_;
      if (best_level < 0 || cand < best_cand) {
        best_level = k;
        best_ring = ring;
        best_cand = cand;
      }
    }
    // Tighten the floor to the exact minimum candidate. Candidates
    // only grow as pos_ advances and slots empty, and inserts lower
    // the floor again, so this stays a valid lower bound.
    overflow_floor_ = best_level < 0 ? kMaxTime : best_cand;

    if (best_level < 0) {
      if (!have0 || t0 > limit) return false;
      *due = t0;
      *l0_slot = ring0;
      return true;
    }
    if (have0 && t0 < best_cand) {
      if (t0 > limit) return false;
      *due = t0;
      *l0_slot = ring0;
      return true;
    }
    // Never cascade a slot that cannot hold an event due within the
    // caller's horizon: cascading advances pos_, and letting pos_
    // overtake the caller's clock would make later near-time inserts
    // compute a negative (wrapped) delta and misplace themselves.
    if (best_cand > limit) return false;
    CascadeSlot(best_level, best_ring);
  }
}

void Simulator::CascadeSlot(int level, uint32_t ring) {
  const int shift = ShiftFor(level);
  const uint64_t cur_bucket = static_cast<uint64_t>(pos_) >> shift;
  const auto cur = static_cast<uint32_t>(cur_bucket) & (kLevelSlots - 1);
  const uint64_t bucket = cur_bucket + RingDistance(cur, ring, kLevelSlots);
  const auto start = static_cast<TimeNs>(bucket << shift);
  // Anchor the wheel at the slot being opened: its events then span
  // less than one level-`level` granule past pos_, so each lands at a
  // strictly lower level and the cascade terminates.
  if (start > pos_) pos_ = start;

  const uint32_t slot_id = SlotBase(level) + ring;
  uint32_t idx = slots_[slot_id].head;
  slots_[slot_id].head = kNilIndex;
  slots_[slot_id].tail = kNilIndex;
  ClearOccupied(slot_id);
  while (idx != kNilIndex) {
    const uint32_t next = NodeAt(idx).next;
    InsertNode(idx);
    idx = next;
  }
}

int64_t Simulator::DispatchSlot(TimeNs t, uint32_t l0_slot) {
  if (t > pos_) pos_ = t;
  Slot& s = slots_[l0_slot];
  int64_t count = 0;
  // Every event in a near-wheel bucket shares timestamp t, so the
  // clock moves once for the whole batch.
  now_ = t;
  // Batch-dispatch the whole same-timestamp run. Callbacks may append
  // new events for this same timestamp (they carry higher seq numbers,
  // so they belong at the tail) or cancel later ones; re-reading the
  // head each iteration observes both.
  while (s.head != kNilIndex && !stopped_) {
    const uint32_t idx = s.head;
    Node& n = NodeAt(idx);
    // Head pop, specialized from Unlink(): the head has no
    // predecessor, so only the forward link and tail need fixing.
    s.head = n.next;
    if (n.next == kNilIndex) {
      s.tail = kNilIndex;
      ClearOccupied(l0_slot);
    } else {
      NodeAt(n.next).prev = kNilIndex;
    }
    n.pending = false;
    ++n.gen;  // outstanding handles to this event are now stale
    ++events_processed_;
    --live_events_;
    ++count;
    n.run(n.storage);
    FreeNode(idx);
  }
  return count;
}

bool Simulator::Cancel(TimerHandle& handle) {
  const uint32_t idx = handle.index_;
  const uint64_t gen = handle.gen_;
  handle = TimerHandle();
  if (idx == kNilIndex) return false;
  if (idx >= chunks_.size() * kChunkSize) return false;
  Node& n = NodeAt(idx);
  if (!n.pending || n.gen != gen) return false;
  Unlink(n);
  n.pending = false;
  ++n.gen;
  n.destroy(n.storage);
  FreeNode(idx);
  --live_events_;
  return true;
}

void Simulator::Run() {
  if (stopped_) {
    // Sticky stop requested before entry: consume it without running
    // anything (historically this was silently dropped).
    stopped_ = false;
    return;
  }
  TimeNs due = 0;
  uint32_t slot = 0;
  while (NextDue(kMaxTime, &due, &slot)) {
    DispatchSlot(due, slot);
    if (stopped_) {
      stopped_ = false;
      return;
    }
  }
}

int64_t Simulator::RunUntil(TimeNs t) {
  if (stopped_) {
    stopped_ = false;
    return 0;
  }
  int64_t processed = 0;
  TimeNs due = 0;
  uint32_t slot = 0;
  while (NextDue(t, &due, &slot)) {
    processed += DispatchSlot(due, slot);
    if (stopped_) {
      // Stop path: Now() stays at the last dispatched event; the clock
      // is not advanced to t (see RunUntil() contract).
      stopped_ = false;
      return processed;
    }
  }
  if (now_ < t) now_ = t;
  if (pos_ < t) pos_ = t;
  return processed;
}

}  // namespace reflex::sim
