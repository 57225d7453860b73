// Priority queue of timestamped events with stable FIFO ordering for equal
// timestamps and O(1) amortised cancellation.
//
// Layout: a 4-ary implicit heap of 24-byte {time, key, slot} entries over a
// generation-stamped slot slab that owns the callables. An EventId packs
// (slot generation << 32 | slot index), so cancel() is a bounds check plus
// a generation compare -- no hashing, no tombstone map.
//
// Cancellation is lazy: cancel() kills the slot (bumps its generation,
// drops the callable) but leaves its heap entry behind, and pop() /
// next_time() discard dead entries when they surface at the root. A dead
// entry's slot is recycled only when the entry leaves the heap, so a stale
// entry can never fire a reused slot. Almost every timer the protocol arms
// (RPC timeouts, 2PC and lock-wait deadlines) is cancelled long before it
// would surface, so on its own lazy reaping lets the heap grow to tens of
// times the live set. cancel() therefore compacts the heap once dead
// entries dominate it: the dead entries are dropped (their slots recycled)
// and the survivors re-heapified bottom-up. The pop order is the unique
// (time, key) order whatever the heap's shape, so compaction is invisible
// to callers; each compaction removes at least 3/4 of the heap as dead
// entries, so its cost is O(1) amortised per cancel.
//
// The slab is chunked (64 slots per chunk) so growth never move-relocates
// a stored callable -- with a flat vector the InlineFn relocation per grow
// was ~20% of push/pop cost. The tie-break key's low half is a 32-bit
// counter with wraparound-aware comparison: ties only matter between events
// at the SAME timestamp, which are never 2^31 mints apart.
//
// push/pop/cancel are defined inline: they are the single hottest path in
// the simulator and the call-per-event boundary was measurable.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/inline_fn.h"

namespace ddbs {

using EventId = uint64_t; // (generation << 32) | slot index; 0 = invalid
using EventFn = InlineFn;

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
    s.live = true;
    s.fn = std::move(fn);
    heap_.push_back(HeapEntry{at, key, idx});
    sift_up(heap_.size() - 1);
    ++live_;
    return make_id(s.gen, idx);
  }

  // True if the event existed and had not yet run.
  bool cancel(EventId id) {
    const uint32_t idx = static_cast<uint32_t>(id & 0xffffffffu);
    const uint32_t gen = static_cast<uint32_t>(id >> 32);
    if (idx >= slot_count_) return false;
    Slot& s = slot(idx);
    if (!s.live || s.gen != gen) return false;
    // The heap entry stays; drop_dead() reaps it (and recycles the slot)
    // when it reaches the root, or compact() when dead entries dominate.
    s.live = false;
    s.gen++; // invalidate the id immediately
    s.fn.reset();
    --live_;
    if (heap_.size() > kCompactMinEntries &&
        heap_.size() > kCompactRatio * live_) {
      compact();
    }
    return true;
  }

  bool empty() const { return live_ == 0; }
  size_t size() const { return live_; }
  // Heap entries, live plus not-yet-reaped cancelled ones.
  size_t heap_entries() const { return heap_.size(); }

  // kNoTime when empty.
  SimTime next_time() const {
    drop_dead();
    return heap_.empty() ? kNoTime : heap_[0].time;
  }

  struct Fired {
    SimTime time = 0;
    EventId id = 0;
    EventKey key = 0;
    EventFn fn;
  };
  // Pops the earliest live event; requires !empty(). The callable is moved
  // out, never copied.
  Fired pop() {
    drop_dead();
    assert(!heap_.empty());
    const HeapEntry top = heap_[0];
    pop_root();
    Slot& s = slot(top.slot);
    Fired f{top.time, make_id(s.gen, top.slot), top.key, std::move(s.fn)};
    free_slot(top.slot);
    --live_;
    return f;
  }

 private:
  struct Slot {
    uint32_t gen = 1;
    bool live = false;
    EventFn fn;
  };
  struct HeapEntry {
    SimTime time;
    EventKey key; // (lane << 32) | counter tie-break at equal times
    uint32_t slot;
  };
  static constexpr uint32_t kChunkShift = 6;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  // cancel() compacts once the heap holds more than kCompactRatio entries
  // per live event (and is not tiny).
  static constexpr size_t kCompactMinEntries = 64;
  static constexpr size_t kCompactRatio = 4;

  static EventId make_id(uint32_t gen, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  Slot& slot(uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  bool before(const HeapEntry& a, const HeapEntry& b) const {
    if (a.time != b.time) return a.time < b.time;
    const uint32_t la = static_cast<uint32_t>(a.key >> 32);
    const uint32_t lb = static_cast<uint32_t>(b.key >> 32);
    if (la != lb) return la < lb;
    // The lane counter wraps at 2^32; same-time same-lane events are never
    // 2^31 mints apart, so a signed difference orders them across the wrap.
    return static_cast<int32_t>(static_cast<uint32_t>(a.key) -
                                static_cast<uint32_t>(b.key)) < 0;
  }

  void free_slot(uint32_t idx) const {
    Slot& s = slot(idx);
    if (s.live) {
      s.live = false;
      s.gen++;
    }
    free_.push_back(idx);
  }

  void drop_dead() const {
    while (!heap_.empty() && !slot(heap_[0].slot).live) {
      free_slot(heap_[0].slot);
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

  // Mutable + const helpers: reaping already-cancelled heap entries from
  // next_time() does not change the observable live set.
  mutable std::vector<std::unique_ptr<Slot[]>> chunks_;
  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<uint32_t> free_;
  uint32_t slot_count_ = 0;
  uint32_t next_seq_ = 0;
  size_t live_ = 0;
};

} // namespace ddbs
