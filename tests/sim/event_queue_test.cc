#include "tocttou/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tocttou/common/error.h"

namespace tocttou::sim {
namespace {

using namespace tocttou::literals;

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime::origin() + 5_us, [&] { order.push_back(2); });
  q.schedule_at(SimTime::origin() + 1_us, [&] { order.push_back(1); });
  q.schedule_at(SimTime::origin() + 9_us, [&] { order.push_back(3); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime::origin() + 9_us);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(SimTime::origin() + 3_us, [&, i] { order.push_back(i); });
  }
  while (q.run_next()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ScheduleAfterUsesNow) {
  EventQueue q;
  SimTime seen;
  q.schedule_at(SimTime::origin() + 2_us, [&] {
    q.schedule_after(3_us, [&] { seen = q.now(); });
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(seen, SimTime::origin() + 5_us);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  // Callbacks need trivially copyable captures, so the recursion closes
  // over plain pointers instead of a std::function handle.
  struct Recurse {
    EventQueue* q;
    int* depth;
    void operator()() const {
      if (++*depth < 5) q->schedule_after(1_us, *this);
    }
  };
  q.schedule_at(SimTime::origin(), Recurse{&q, &depth});
  while (q.run_next()) {
  }
  EXPECT_EQ(depth, 5);
}

TEST(EventQueueTest, RejectsPast) {
  EventQueue q;
  q.schedule_at(SimTime::origin() + 5_us, [] {});
  q.run_next();
  EXPECT_THROW(q.schedule_at(SimTime::origin() + 1_us, [] {}), SimError);
}

TEST(EventQueueTest, PeekTime) {
  EventQueue q;
  EXPECT_EQ(q.peek_time(), SimTime::never());
  q.schedule_at(SimTime::origin() + 7_us, [] {});
  EXPECT_EQ(q.peek_time(), SimTime::origin() + 7_us);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, EmptyRunReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueueTest, InterleavedPushPopKeepsHeapOrder) {
  EventQueue q;
  std::vector<int> order;
  // Exercise sift_down paths: pop some events while later ones are still
  // pending, pushing new earlier/later events in between.
  q.schedule_at(SimTime::origin() + 10_us, [&] { order.push_back(10); });
  q.schedule_at(SimTime::origin() + 4_us, [&] {
    order.push_back(4);
    q.schedule_after(2_us, [&] { order.push_back(6); });
    q.schedule_after(20_us, [&] { order.push_back(24); });
  });
  q.schedule_at(SimTime::origin() + 8_us, [&] { order.push_back(8); });
  q.schedule_at(SimTime::origin() + 2_us, [&] { order.push_back(2); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{2, 4, 6, 8, 10, 24}));
}

TEST(EventQueueTest, ManyEventsDrainSorted) {
  EventQueue q;
  std::vector<std::int64_t> order;
  // Deterministic pseudo-random insertion order.
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto t = static_cast<std::int64_t>(x % 5000);
    q.schedule_at(SimTime::origin() + Duration::nanos(t),
                  [&order, t] { order.push_back(t); });
  }
  while (q.run_next()) {
  }
  ASSERT_EQ(order.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, HashStateFollowsFiringOrderAndFlagsUntaggedEvents) {
  // Pending entries digest in (time, seq) order whatever order they were
  // scheduled in; the tags are part of the digest; an untagged entry
  // makes the state unhashable.
  const auto digest = [](const EventQueue& q) {
    StateHasher h;
    q.hash_state(h);
    EXPECT_TRUE(h.hashable());
    return h.digest();
  };
  const auto fill = [](EventQueue& q, std::vector<int> order, int a0) {
    for (const int i : order) {
      q.schedule_at(SimTime::origin() + Duration::micros(i), [] {},
                    EventTag{static_cast<std::uint32_t>(i), a0 * i, 0});
    }
  };
  EventQueue a, b, c;
  fill(a, {1, 2, 3}, 10);
  fill(b, {3, 2, 1}, 10);  // a different heap layout, same firing order
  fill(c, {1, 2, 3}, 11);
  EXPECT_EQ(digest(a), digest(b));
  EXPECT_NE(digest(a), digest(c));

  a.schedule_at(SimTime::origin() + 7_us, [] {});
  StateHasher h;
  a.hash_state(h);
  EXPECT_FALSE(h.hashable());
}

}  // namespace
}  // namespace tocttou::sim
