// Priority queue of timestamped events with a unique (time, key) pop order
// and O(1) cancellation.
//
// Layout: a generation-stamped slot slab owns the callables, and two
// indexes over it order the slots:
//
//   * a near-future calendar (Brown, CACM 1988) of kSpan one-microsecond
//     buckets covering [base, base + kSpan), where base is the time of the
//     last popped event. Each bucket holds events of exactly one time and
//     is an intrusive singly-linked list threaded through the slots'
//     `next` index, kept sorted by EventKey. A two-level occupancy bitmap
//     (one bit per bucket, one summary bit per 64 buckets) finds the first
//     non-empty bucket in a few word operations. Message deliveries
//     (500-1500 us) and the local hops (after(1), local_op_cost, think
//     time) all land here: push and pop are O(1) plus the bucket's few
//     same-time neighbours.
//   * a 4-ary implicit heap of 24-byte {time, key, slot} entries for
//     everything else: events beyond the window (RPC, 2PC and lock
//     timeouts, detector ticks) and events pushed behind base. A heap
//     event is never moved into the calendar; pop() and next_time()
//     compare the two fronts, so one that falls inside the window later
//     still pops in order.
//
// An EventId packs (slot generation << 32 | slot index). A slot's
// generation is odd while its event is pending and even otherwise, so
// cancel() is a bounds check plus a generation compare -- no hashing, no
// tombstone map.
//
// Cancellation is lazy in both indexes: cancel() kills the slot (bumps its
// generation, drops the callable) and leaves its heap entry or bucket link
// behind; pop() / next_time() discard dead entries when they surface at
// the front. A dead entry's slot is recycled only when the entry leaves
// its index, so a stale entry can never fire a reused slot. Almost every
// timer the protocol arms (RPC timeouts, 2PC and lock-wait deadlines) is
// cancelled long before it would surface, so cancel() compacts the heap
// once dead entries dominate it: the dead entries are dropped (their slots
// recycled) and the survivors re-heapified bottom-up. Each compaction
// removes at least 3/4 of the heap, so its cost is O(1) amortised per
// cancel. Calendar buckets need no compaction: the window passes every
// bucket within kSpan microseconds and reaps it then.
//
// The slab is chunked (64 slots per chunk) so growth never move-relocates
// a stored callable. The tie-break key's low half is a 32-bit counter with
// wraparound-aware comparison: ties only matter between events at the SAME
// timestamp, which are never 2^31 mints apart.
//
// push/pop/cancel are defined inline: they are the single hottest path in
// the simulator and the call-per-event boundary was measurable.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/inline_fn.h"

namespace ddbs {

using EventId = uint64_t; // (generation << 32) | slot index; 0 = invalid
using EventFn = InlineFn<void()>;

// Ordering key for same-time events. The high 32 bits are an *origin
// lane* (0 = global control actions, 1 = context-free scheduling, site s =
// s + 2), the low 32 bits a per-lane counter compared with the same
// wraparound trick as the legacy FIFO seq. Keys minted per site instead of
// per queue make the tie-break locally computable: the parallel backend's
// shard queues and the single-threaded DES then order identical event sets
// identically (see Scheduler). Legacy push() keys everything in lane 1
// from the queue's own counter, which is exactly the old global FIFO.
using EventKey = uint64_t;

constexpr EventKey make_event_key(uint32_t lane, uint32_t counter) {
  return (static_cast<EventKey>(lane) << 32) | counter;
}

class EventQueue {
 public:
  // Bucket heads are read only under a set occupancy bit, so the array
  // is left uninitialised: a queue costs one allocation to build.
  EventQueue() : bucket_head_(new uint32_t[kSpan]) {}

  EventId push(SimTime at, EventFn fn) {
    return push_keyed(at, make_event_key(1, next_seq_++), std::move(fn));
  }

  // Caller-supplied ordering key; see EventKey. Keys must be unique per
  // (time, lane) -- the Scheduler's per-lane counters guarantee it.
  EventId push_keyed(SimTime at, EventKey key, EventFn fn) {
    uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = slot_count_++;
      if ((idx >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
    }
    Slot& s = slot(idx);
    ++s.gen; // odd: pending
    s.key = key;
    s.fn = std::move(fn);
    if (at >= base_ && at - base_ < kSpan) {
      bucket_insert(static_cast<uint32_t>(at) & kMask, idx);
    } else {
      s.next = kInHeap;
      heap_.push_back(HeapEntry{at, key, idx});
      sift_up(heap_.size() - 1);
      ++heap_live_;
    }
    ++live_;
    return make_id(s.gen, idx);
  }

  // True if the event existed and had not yet run.
  bool cancel(EventId id) {
    const uint32_t idx = static_cast<uint32_t>(id & 0xffffffffu);
    const uint32_t gen = static_cast<uint32_t>(id >> 32);
    if (idx >= slot_count_) return false;
    Slot& s = slot(idx);
    if (s.gen != gen || !live(s)) return false;
    // The index entry stays; the front-reaping in pop()/next_time()
    // recycles the slot, or compact() when dead heap entries dominate.
    s.gen++; // even: dead, and the id is invalid from now on
    s.fn.reset();
    --live_;
    if (s.next == kInHeap) {
      --heap_live_;
      if (heap_.size() > kCompactMinEntries &&
          heap_.size() > kCompactRatio * heap_live_) {
        compact();
      }
    }
    return true;
  }

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }
  // Heap entries, live plus not-yet-reaped cancelled ones.
  size_t heap_entries() const { return heap_.size(); }

  // kNoTime when empty.
  SimTime next_time() const { return front().time; }

  struct Fired {
    SimTime time = 0;
    EventId id = 0;
    EventKey key = 0;
    EventFn fn;
  };
  // Pops the earliest live event; requires !empty(). The callable is moved
  // out, never copied.
  Fired pop() {
    const Front f = front();
    assert(f.time != kNoTime);
    uint32_t idx;
    if (f.bucket != kNil) {
      idx = bucket_head_[f.bucket];
      unlink_head(f.bucket);
    } else {
      idx = heap_[0].slot;
      pop_root();
      --heap_live_;
    }
    if (f.time > base_) base_ = f.time;
    Slot& s = slot(idx);
    Fired out{f.time, make_id(s.gen, idx), s.key, std::move(s.fn)};
    ++s.gen; // even: fired
    free_.push_back(idx);
    --live_;
    return out;
  }

 private:
  // The calendar window: a power of two so a time maps to its bucket by a
  // mask, and 64 x 64 buckets so one summary word covers the bitmap.
  static constexpr uint32_t kSpanShift = 12;
  static constexpr uint32_t kSpan = 1u << kSpanShift; // microseconds
  static constexpr uint32_t kMask = kSpan - 1;
  static constexpr uint32_t kWords = kSpan / 64;
  static_assert(kWords == 64, "one summary word covers the bitmap");

  static constexpr uint32_t kNil = UINT32_MAX;         // end of a bucket
  static constexpr uint32_t kInHeap = UINT32_MAX - 1;  // `next` of heap slots

  struct Slot {
    uint32_t gen = 0;   // odd while pending
    uint32_t next = kNil; // next slot in the bucket, or kInHeap
    EventKey key = 0;
    EventFn fn;
  };
  struct HeapEntry {
    SimTime time;
    EventKey key; // (lane << 32) | counter tie-break at equal times
    uint32_t slot;
  };
  // The earliest live event: its time (kNoTime when empty) and, when it is
  // a calendar event, its bucket (kNil for the heap root).
  struct Front {
    SimTime time;
    uint32_t bucket;
  };
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  // cancel() compacts once the heap holds more than kCompactRatio entries
  // per live heap event (and is not tiny).
  static constexpr size_t kCompactMinEntries = 64;
  static constexpr size_t kCompactRatio = 4;

  static EventId make_id(uint32_t gen, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  static bool live(const Slot& s) { return (s.gen & 1u) != 0; }

  Slot& slot(uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  static bool key_before(EventKey a, EventKey b) {
    const uint32_t la = static_cast<uint32_t>(a >> 32);
    const uint32_t lb = static_cast<uint32_t>(b >> 32);
    if (la != lb) return la < lb;
    // The lane counter wraps at 2^32; same-time same-lane events are never
    // 2^31 mints apart, so a signed difference orders them across the wrap.
    return static_cast<int32_t>(static_cast<uint32_t>(a) -
                                static_cast<uint32_t>(b)) < 0;
  }
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return key_before(a.key, b.key);
  }

  // ---- calendar ----

  // Link slot `idx` into bucket `b` in key order.
  void bucket_insert(uint32_t b, uint32_t idx) {
    Slot& s = slot(idx);
    uint32_t* link = &bucket_head_[b];
    if ((occ_[b >> 6] & (1ull << (b & 63))) == 0) {
      *link = kNil;
      occ_[b >> 6] |= 1ull << (b & 63);
      summary_ |= 1ull << (b >> 6);
    }
    while (*link != kNil && !key_before(s.key, slot(*link).key)) {
      link = &slot(*link).next;
    }
    s.next = *link;
    *link = idx;
  }

  void unlink_head(uint32_t b) const {
    const uint32_t next = slot(bucket_head_[b]).next;
    bucket_head_[b] = next;
    if (next == kNil) {
      occ_[b >> 6] &= ~(1ull << (b & 63));
      if (occ_[b >> 6] == 0) summary_ &= ~(1ull << (b >> 6));
    }
  }

  // First non-empty bucket in window order (from base_'s bucket, wrapping),
  // or kNil.
  uint32_t first_bucket() const {
    if (summary_ == 0) return kNil;
    const uint32_t start = static_cast<uint32_t>(base_) & kMask;
    const uint32_t w = start >> 6;
    const uint64_t high = ~0ull << (start & 63); // buckets >= start in w
    if (const uint64_t bits = occ_[w] & high; bits != 0) {
      return (w << 6) | static_cast<uint32_t>(std::countr_zero(bits));
    }
    // Words after w, then (wrapped) words before w, then w's low bits.
    const uint64_t after = w == 63 ? 0 : summary_ & (~0ull << (w + 1));
    const uint64_t wrapped = summary_ & ((1ull << w) - 1);
    if (const uint64_t sum = after != 0 ? after : wrapped; sum != 0) {
      const auto w2 = static_cast<uint32_t>(std::countr_zero(sum));
      return (w2 << 6) | static_cast<uint32_t>(std::countr_zero(occ_[w2]));
    }
    return (w << 6) | static_cast<uint32_t>(std::countr_zero(occ_[w] & ~high));
  }

  // Earliest live calendar bucket after reaping dead heads, or kNil.
  uint32_t live_bucket() const {
    while (true) {
      const uint32_t b = first_bucket();
      if (b == kNil) return kNil;
      const uint32_t h = bucket_head_[b];
      if (live(slot(h))) return b;
      unlink_head(b);
      free_.push_back(h);
    }
  }

  SimTime bucket_time(uint32_t b) const {
    return base_ + ((b - static_cast<uint32_t>(base_)) & kMask);
  }

  Front front() const {
    const uint32_t b = live_bucket();
    drop_dead();
    if (b == kNil) {
      return Front{heap_.empty() ? kNoTime : heap_[0].time, kNil};
    }
    const SimTime t = bucket_time(b);
    if (!heap_.empty() &&
        before(heap_[0], HeapEntry{t, slot(bucket_head_[b]).key, 0})) {
      return Front{heap_[0].time, kNil};
    }
    return Front{t, b};
  }

  // ---- heap ----

  void drop_dead() const {
    while (!heap_.empty() && !live(slot(heap_[0].slot))) {
      free_.push_back(heap_[0].slot);
      pop_root();
    }
  }

  // Drop every dead entry, recycling its slot, and re-heapify.
  void compact();
  void sift_up(size_t i);
  void sift_down(size_t i) const;
  void pop_root() const {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  // Mutable + const helpers: reaping already-cancelled entries from
  // next_time() does not change the observable live set.
  mutable std::vector<std::unique_ptr<Slot[]>> chunks_;
  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<uint32_t> free_;
  std::unique_ptr<uint32_t[]> bucket_head_;   // kSpan list heads
  mutable uint64_t occ_[kWords] = {};          // bit per non-empty bucket
  mutable uint64_t summary_ = 0;               // bit per non-zero occ_ word
  SimTime base_ = 0; // calendar window start: the last popped time
  uint32_t slot_count_ = 0;
  uint32_t next_seq_ = 0;
  size_t live_ = 0;
  size_t heap_live_ = 0;
};

} // namespace ddbs
