// Discrete-event core: a priority queue of timestamped kernel events.
//
// A pending event is plain data — what the kernel will do (its kind), to
// which process, and one operand — and Kernel::step() pops the earliest
// one and dispatches it through a single switch. So the queue a
// checkpoint fork copies, and the one the state digest hashes, is
// exactly what the kernel will run: there is no callback to rebind and
// no second description of it to keep in agreement.
//
// Events with equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic.
//
// Hot path: the queue runs millions of events per second, so scheduling
// and firing an event must not touch the allocator. The queue is a
// hand-rolled binary heap of 32-byte trivially copyable entries: zero
// heap traffic per event once the heap has grown (bench_core_hotpath
// measures it).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tocttou/common/state_hash.h"
#include "tocttou/common/time.h"
#include "tocttou/sim/ids.h"

namespace tocttou::sim {

/// What a pending event does when it fires. The values are digest bytes
/// (DESIGN.md §10.2): renumbering one changes every state digest. One
/// kind serves every wakeup — a timer sleep ending, a flag set, device
/// I/O completing, a semaphore handed off — since what the wake ends
/// follows from the process's own state.
enum class EventKind : std::uint32_t {
  spawn = 1,         // put a newly spawned process on a run queue
  wake = 2,          // end this process's sleep or wait
  delayed_wake = 3,  // an injected wakeup delay ends (cannot be re-faulted)
  segment_end = 4,   // a CPU segment ends; arg = the segment's generation
};

/// A pending event: what fires, for which process, and the one operand
/// its kind takes (a segment end's generation; 0 for the other kinds).
struct Event {
  EventKind kind;
  Pid pid;
  std::uint64_t arg = 0;
};
static_assert(sizeof(Event) == 16);

class EventQueue {
 public:
  EventQueue();

  /// Schedules `ev` to fire at absolute time `t` (must be >= now()).
  void schedule_at(SimTime t, Event ev);

  /// Pops the earliest event into `*out`, advancing now() to its time.
  /// Returns false (and does nothing) if the queue is empty.
  bool pop(Event* out);

  /// Timestamp of the earliest pending event (never() if empty).
  SimTime peek_time() const;

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// Canonical state digest (DESIGN.md §10): now(), then every pending
  /// event `live` accepts, in firing order — (t, seq), since the heap
  /// layout is scheduling history; sequence numbers themselves are not
  /// hashed, their order at equal times is captured by position. Each
  /// hashes its time, kind and pid. The only operand, a segment end's
  /// generation counter, is left out: its absolute value is scheduling
  /// history too (it drifts when one schedule splits a segment another
  /// did not). An event `live` rejects is a timestamped no-op the kernel
  /// will drop when it fires; its only effect on the run is an
  /// event-count tick, so it is skipped, time included, and does not
  /// distinguish otherwise equal states.
  template <typename Live>
  void hash_state(StateHasher& h, Live live) const;

 private:
  struct Entry {
    SimTime t;
    std::uint64_t seq;
    Event ev;
  };
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Entry> heap_;  // binary min-heap ordered by earlier()
  SimTime now_ = SimTime::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

template <typename Live>
void EventQueue::hash_state(StateHasher& h, Live live) const {
  h.time(now_);
  std::vector<Entry> order;
  order.reserve(heap_.size());
  for (const Entry& e : heap_) {
    if (live(e.ev)) order.push_back(e);
  }
  std::sort(order.begin(), order.end(), earlier);
  h.u64(order.size());
  for (const Entry& e : order) {
    h.time(e.t);
    h.u32(static_cast<std::uint32_t>(e.ev.kind));
    h.i64(static_cast<std::int64_t>(e.ev.pid));
  }
}

}  // namespace tocttou::sim
