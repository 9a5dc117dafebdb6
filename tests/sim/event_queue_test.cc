#include "tocttou/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tocttou/common/error.h"

namespace tocttou::sim {
namespace {

using namespace tocttou::literals;

Event ev(std::uint64_t arg) { return Event{EventKind::wake, 1, arg}; }

/// Pops every pending event, returning their args in firing order.
std::vector<std::uint64_t> drain(EventQueue& q) {
  std::vector<std::uint64_t> order;
  Event e{};
  while (q.pop(&e)) order.push_back(e.arg);
  return order;
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  q.schedule_at(SimTime::origin() + 5_us, ev(2));
  q.schedule_at(SimTime::origin() + 1_us, ev(1));
  q.schedule_at(SimTime::origin() + 9_us, ev(3));
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime::origin() + 9_us);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) {
    q.schedule_at(SimTime::origin() + 3_us, ev(i));
  }
  const std::vector<std::uint64_t> order = drain(q);
  ASSERT_EQ(order.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ScheduleAfterUsesNow) {
  EventQueue q;
  q.schedule_at(SimTime::origin() + 2_us, ev(0));
  Event e{};
  ASSERT_TRUE(q.pop(&e));
  q.schedule_at(q.now() + 3_us, ev(1));
  ASSERT_TRUE(q.pop(&e));
  EXPECT_EQ(e.arg, 1u);
  EXPECT_EQ(q.now(), SimTime::origin() + 5_us);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  q.schedule_at(SimTime::origin(), ev(0));
  Event e{};
  while (q.pop(&e)) {
    if (++depth < 5) q.schedule_at(q.now() + 1_us, ev(e.arg + 1));
  }
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.arg, 4u);
}

TEST(EventQueueTest, RejectsPast) {
  EventQueue q;
  q.schedule_at(SimTime::origin() + 5_us, ev(0));
  Event e{};
  q.pop(&e);
  EXPECT_THROW(q.schedule_at(SimTime::origin() + 1_us, ev(0)), SimError);
}

TEST(EventQueueTest, PeekTime) {
  EventQueue q;
  EXPECT_EQ(q.peek_time(), SimTime::never());
  q.schedule_at(SimTime::origin() + 7_us, ev(0));
  EXPECT_EQ(q.peek_time(), SimTime::origin() + 7_us);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, EmptyRunReturnsFalse) {
  EventQueue q;
  Event e{};
  EXPECT_FALSE(q.pop(&e));
}

TEST(EventQueueTest, InterleavedPushPopKeepsHeapOrder) {
  EventQueue q;
  // Exercise sift_down paths: pop some events while later ones are still
  // pending, pushing new earlier/later events in between.
  q.schedule_at(SimTime::origin() + 10_us, ev(10));
  q.schedule_at(SimTime::origin() + 4_us, ev(4));
  q.schedule_at(SimTime::origin() + 8_us, ev(8));
  q.schedule_at(SimTime::origin() + 2_us, ev(2));
  std::vector<std::uint64_t> order;
  Event e{};
  while (q.pop(&e)) {
    order.push_back(e.arg);
    if (e.arg == 4) {
      q.schedule_at(q.now() + 2_us, ev(6));
      q.schedule_at(q.now() + 20_us, ev(24));
    }
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 4, 6, 8, 10, 24}));
}

TEST(EventQueueTest, ManyEventsDrainSorted) {
  EventQueue q;
  // Deterministic pseudo-random insertion order; each event carries its
  // own time.
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto t = static_cast<std::int64_t>(x % 5000);
    q.schedule_at(SimTime::origin() + Duration::nanos(t),
                  ev(static_cast<std::uint64_t>(t)));
  }
  const std::vector<std::uint64_t> order = drain(q);
  ASSERT_EQ(order.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, HashStateFollowsFiringOrder) {
  // Pending events digest in (time, seq) order whatever order they were
  // scheduled in, and their payloads are part of the digest.
  const auto digest = [](const EventQueue& q) {
    StateHasher h;
    q.hash_state(h, [](const Event&) { return true; });
    EXPECT_TRUE(h.hashable());
    return h.digest();
  };
  const auto fill = [](EventQueue& q, std::vector<int> order, Pid p0) {
    for (const int i : order) {
      q.schedule_at(SimTime::origin() + Duration::micros(i),
                    Event{static_cast<EventKind>(i), p0 * i});
    }
  };
  EventQueue a, b, c;
  fill(a, {1, 2, 3}, 10);
  fill(b, {3, 2, 1}, 10);  // a different heap layout, same firing order
  fill(c, {1, 2, 3}, 11);
  EXPECT_EQ(digest(a), digest(b));
  EXPECT_NE(digest(a), digest(c));
}

}  // namespace
}  // namespace tocttou::sim
