#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/event_queue.h"
#include "sim/scheduler.h"

namespace ddbs {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&]() { order.push_back(3); });
  q.push(10, [&]() { order.push_back(1); });
  q.push(20, [&]() { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i]() { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.push(10, [&]() { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id)); // second cancel is a no-op
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.push(1, [&]() { order.push_back(1); });
  const EventId id = q.push(2, [&]() { order.push_back(2); });
  q.push(3, [&]() { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId id = q.push(5, []() {});
  q.push(9, []() {});
  EXPECT_EQ(q.next_time(), 5);
  q.cancel(id);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, NextTimeEmpty) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kNoTime);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1, []() {});
  q.push(2, []() {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesStayFifoAcrossCancels) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(q.push(7, [&order, i]() { order.push_back(i); }));
  }
  // Cancelling every third event must not disturb the relative order of
  // the survivors at the shared timestamp.
  for (size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  while (!q.empty()) q.pop().fn();
  std::vector<int> expected;
  for (int i = 0; i < 12; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, CancelAfterFireIsRejected) {
  EventQueue q;
  const EventId id = q.push(10, []() {});
  EventQueue::Fired f = q.pop();
  EXPECT_EQ(f.id, id);
  EXPECT_FALSE(q.cancel(id)); // already ran: id is dead
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId stale = q.push(10, []() {});
  ASSERT_TRUE(q.cancel(stale));
  // Reap the dead heap entry so the slot returns to the free list, then
  // reuse it for a live event.
  EXPECT_EQ(q.next_time(), kNoTime);
  bool ran = false;
  const EventId fresh = q.push(5, [&]() { ran = true; });
  EXPECT_NE(stale, fresh); // same slot, bumped generation
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(ran);
}

// Random push / push_keyed / cancel / pop traffic against a reference
// ordered set, with far-future timers that are mostly cancelled so the heap
// compacts many times. Compaction must never change what pops, in which
// order, or which ids are still cancellable.
TEST(EventQueue, CompactionPreservesOrderAndIds) {
  using Ref = std::pair<SimTime, EventKey>;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::set<Ref> ref;
    std::map<EventId, Ref> live;
    std::vector<EventId> live_ids; // same set as `live`, for random picks
    std::vector<EventId> dead_ids; // cancelled or fired
    std::array<uint32_t, 4> lane_counters{};
    uint32_t fifo_seq = 0; // push()'s own lane-1 counter
    SimTime now = 0;
    Ref fired{};
    int compactions = 0;
    size_t target = 32;
    for (int step = 0; step < 60'000; ++step) {
      if (step % 2000 == 0) target = static_cast<size_t>(rng.uniform(4, 400));
      const int64_t op = rng.uniform(0, 99);
      if (live.size() < target && op < 60) {
        // Coarse times make equal-time ties (and lane ordering) common;
        // half the events are far-deadline timers.
        const SimTime at = now + (op < 30 ? rng.uniform(0, 8) * 10
                                          : 10'000 + rng.uniform(0, 8) * 10);
        EventKey key;
        EventId id;
        if (rng.bernoulli(0.25)) {
          key = make_event_key(1, fifo_seq++);
          id = q.push(at, [&fired, at, key]() { fired = {at, key}; });
        } else {
          const auto lane = static_cast<uint32_t>(rng.uniform(0, 3));
          key = make_event_key(lane + 2, lane_counters[lane]++);
          id = q.push_keyed(at, key,
                            [&fired, at, key]() { fired = {at, key}; });
        }
        ASSERT_TRUE(ref.insert({at, key}).second);
        live.emplace(id, Ref{at, key});
        live_ids.push_back(id);
      } else if (!live_ids.empty() && op < 90) {
        const auto i = static_cast<size_t>(
            rng.uniform(0, static_cast<int64_t>(live_ids.size()) - 1));
        const EventId id = live_ids[i];
        live_ids[i] = live_ids.back();
        live_ids.pop_back();
        const size_t heap_before = q.heap_entries();
        ASSERT_TRUE(q.cancel(id));
        if (q.heap_entries() < heap_before) ++compactions;
        ref.erase(live.at(id));
        live.erase(id);
        dead_ids.push_back(id);
      } else if (!q.empty()) {
        EventQueue::Fired f = q.pop();
        ASSERT_EQ(Ref(f.time, f.key), *ref.begin());
        f.fn();
        ASSERT_EQ(fired, *ref.begin()); // the callable belongs to this event
        ASSERT_EQ(live.at(f.id), *ref.begin());
        ref.erase(ref.begin());
        live.erase(f.id);
        live_ids.erase(std::find(live_ids.begin(), live_ids.end(), f.id));
        dead_ids.push_back(f.id);
        now = f.time;
      }
      if (!dead_ids.empty() && rng.bernoulli(0.2)) {
        // Cancelled (possibly compacted away) or fired: the id is dead even
        // when its slot has since been recycled for a live event.
        const auto i = static_cast<size_t>(
            rng.uniform(0, static_cast<int64_t>(dead_ids.size()) - 1));
        ASSERT_FALSE(q.cancel(dead_ids[i]));
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.next_time(), ref.empty() ? kNoTime : ref.begin()->first);
    }
    EXPECT_GT(compactions, 20);
  }
}

// The two-index layout against a reference ordered set: near pushes land
// in the calendar window (4096 us), far ones in the heap and enter the
// window's range as time advances, and an occasional push behind the last
// popped time goes to the heap too. Coarse times make equal-time ties
// across lanes common; legacy push() interleaves with push_keyed(). The
// run advances the clock across the window many times over.
TEST(EventQueue, CalendarMatchesReferenceOrder) {
  using Ref = std::pair<SimTime, EventKey>;
  constexpr SimTime kWindow = 4096;
  for (uint64_t seed : {11u, 21u, 31u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    EventQueue q;
    std::set<Ref> ref;
    std::map<EventId, Ref> live;
    std::vector<EventId> live_ids;
    std::set<Ref> pushed_far; // were beyond the window when pushed
    std::array<uint32_t, 4> lane_counters{};
    uint32_t fifo_seq = 0;
    SimTime now = 0;
    Ref fired{};
    int far_popped = 0;
    size_t target = 64;
    for (int step = 0; step < 120'000; ++step) {
      if (step % 3000 == 0) target = static_cast<size_t>(rng.uniform(8, 600));
      const int64_t op = rng.uniform(0, 99);
      if (live.size() < target && op < 55) {
        SimTime at;
        const int64_t where = rng.uniform(0, 99);
        if (where < 45) {
          at = now + rng.uniform(0, 40) * 100; // near, many ties
        } else if (where < 80) {
          at = now + rng.uniform(0, kWindow - 1); // anywhere in the window
        } else if (where < 97) {
          at = now + kWindow + rng.uniform(0, 3 * kWindow); // far: heap
        } else {
          at = std::max<SimTime>(0, now - rng.uniform(0, 50)); // behind
        }
        EventKey key;
        EventId id;
        if (rng.bernoulli(0.2)) {
          key = make_event_key(1, fifo_seq++);
          id = q.push(at, [&fired, at, key]() { fired = {at, key}; });
        } else {
          const auto lane = static_cast<uint32_t>(rng.uniform(0, 3));
          key = make_event_key(lane + 2, lane_counters[lane]++);
          id = q.push_keyed(at, key,
                            [&fired, at, key]() { fired = {at, key}; });
        }
        ASSERT_TRUE(ref.insert({at, key}).second);
        if (at >= now + kWindow) pushed_far.insert({at, key});
        live.emplace(id, Ref{at, key});
        live_ids.push_back(id);
      } else if (!live_ids.empty() && op < 75) {
        const auto i = static_cast<size_t>(
            rng.uniform(0, static_cast<int64_t>(live_ids.size()) - 1));
        const EventId id = live_ids[i];
        live_ids[i] = live_ids.back();
        live_ids.pop_back();
        ASSERT_TRUE(q.cancel(id));
        ASSERT_FALSE(q.cancel(id));
        ref.erase(live.at(id));
        pushed_far.erase(live.at(id));
        live.erase(id);
      } else if (!q.empty()) {
        ASSERT_EQ(q.next_time(), ref.begin()->first);
        EventQueue::Fired f = q.pop();
        ASSERT_EQ(Ref(f.time, f.key), *ref.begin());
        f.fn();
        ASSERT_EQ(fired, *ref.begin());
        ASSERT_EQ(live.at(f.id), *ref.begin());
        far_popped += static_cast<int>(pushed_far.erase(*ref.begin()));
        ref.erase(ref.begin());
        live.erase(f.id);
        live_ids.erase(std::find(live_ids.begin(), live_ids.end(), f.id));
        ASSERT_FALSE(q.cancel(f.id));
        now = f.time;
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!q.empty()) {
      EventQueue::Fired f = q.pop();
      ASSERT_EQ(Ref(f.time, f.key), *ref.begin());
      ref.erase(ref.begin());
      now = f.time;
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_EQ(q.next_time(), kNoTime);
    EXPECT_GT(now / kWindow, 50); // the window wrapped many times
    EXPECT_GT(far_popped, 300); // heap events that came into range
  }
}

// The RPC-timeout pattern: every request arms a far-deadline timeout and
// nine responses in ten cancel it a few steps later, while message
// deliveries keep popping. Lazy reaping alone would hold every cancelled
// timeout until its deadline reached the root.
TEST(EventQueue, CancelledTimeoutsStayWithinCompactionBound) {
  constexpr SimTime kDeadline = 20'000;
  // EventQueue compacts once the heap exceeds both 64 entries and four
  // entries per live event.
  constexpr size_t kMinEntries = 64;
  constexpr size_t kRatio = 4;
  EventQueue q;
  std::deque<EventId> awaiting; // timeouts whose response is in flight
  size_t max_heap = 0;
  for (SimTime now = 0; now < 4 * kDeadline; ++now) {
    awaiting.push_back(q.push(now + kDeadline, []() {}));
    q.push(now + 3, []() {}); // a message delivery
    if (awaiting.size() > 8) {
      if (now % 10 != 0) {
        ASSERT_TRUE(q.cancel(awaiting.front()));
        ASSERT_LE(q.heap_entries(), std::max(kMinEntries, kRatio * q.size()));
      }
      awaiting.pop_front();
    }
    while (q.next_time() != kNoTime && q.next_time() <= now) q.pop();
    max_heap = std::max(max_heap, q.heap_entries());
  }
  // About kDeadline / 10 uncancelled timeouts are live at any time; without
  // compaction the heap would hold all kDeadline timeouts of the window.
  EXPECT_LE(max_heap, kRatio * (kDeadline / 10 + 64));
  EXPECT_LT(max_heap, static_cast<size_t>(kDeadline) / 2);
}

TEST(EventQueue, SmallCallablesStayInline) {
  int hits = 0;
  EventFn small([&hits]() { ++hits; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(hits, 1);

  // A capture larger than the inline buffer must spill to the heap and
  // still survive moves.
  std::array<uint64_t, 32> big_payload{};
  big_payload[31] = 42;
  uint64_t seen = 0;
  EventFn big([big_payload, &seen]() { seen = big_payload[31]; });
  EXPECT_FALSE(big.is_inline());
  EventFn moved(std::move(big));
  moved();
  EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, MoveOnlyCallableThroughQueue) {
  EventQueue q;
  auto payload = std::make_unique<int>(99);
  int got = 0;
  q.push(1, [p = std::move(payload), &got]() { got = *p; });
  q.pop().fn();
  EXPECT_EQ(got, 99);
}

TEST(Scheduler, RunUntilAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.after(100, [&]() { ++fired; });
  s.after(300, [&]() { ++fired; });
  s.run_until(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 200);
  s.run_until(400);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventsScheduleMoreEvents) {
  Scheduler s;
  std::vector<SimTime> times;
  s.after(10, [&]() {
    times.push_back(s.now());
    s.after(10, [&]() { times.push_back(s.now()); });
  });
  s.run_all();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Scheduler, CancelTimer) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.after(50, [&]() { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_all();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, RunUntilWithoutEventsStillAdvances) {
  Scheduler s;
  s.run_until(1234);
  EXPECT_EQ(s.now(), 1234);
}

} // namespace
} // namespace ddbs
