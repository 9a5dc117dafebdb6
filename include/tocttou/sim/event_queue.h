// Discrete-event core: a priority queue of timestamped callbacks.
//
// Events with equal timestamps fire in scheduling order (a monotonically
// increasing sequence number breaks ties), which keeps runs deterministic.
//
// Hot path: the queue runs millions of events per second, so scheduling
// and firing an event must not touch the allocator. Kernel callbacks
// capture ~20-24 bytes, just past libstdc++'s 16-byte std::function
// small-object buffer, so EventFn stores the callable inline instead
// (captures are small and trivially copyable, enforced at compile time),
// and the queue is a hand-rolled binary heap over trivially copyable
// entries: zero heap traffic per event (bench_core_hotpath measures it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "tocttou/common/state_hash.h"
#include "tocttou/common/time.h"

namespace tocttou::sim {

/// Semantic tag describing a pending event for canonical state hashing
/// (DESIGN.md §10). EventFn captures are opaque bytes, so the queue
/// cannot digest callbacks directly; instead each scheduling site in the
/// kernel attaches a tag naming what the event will do (kind) and its
/// stable operands (pids, generation counters). kind 0 means untagged —
/// the queue's hash_state marks the state unhashable so merging is
/// disabled rather than unsound.
struct EventTag {
  std::uint32_t kind = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Fixed-capacity inline callable for event callbacks. Accepts any
/// trivially copyable callable up to kStorage bytes (the kernel's
/// lambdas capture a couple of ids). Intentionally not a general
/// std::function replacement: no destructor call, no heap fallback —
/// those restrictions are what make Entry trivially copyable and the
/// heap allocation-free.
///
/// Callables may take either no arguments or a single `void*` context.
/// The context form is how pending events survive a RoundRun clone:
/// instead of capturing the Kernel pointer (which would dangle into the
/// original after a deep copy), kernel callbacks capture only stable
/// ids and receive the owning Kernel via run_next(ctx) at fire time.
/// Copying the queue therefore rebinds every pending event to the
/// clone for free — the entries are context-relative by construction.
class EventFn {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "event callbacks must have trivially copyable captures");
    static_assert(std::is_trivially_destructible_v<Fn>,
                  "event callbacks must be trivially destructible");
    static_assert(sizeof(Fn) <= kStorage, "event callback capture too large");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "event callback over-aligned");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    if constexpr (std::is_invocable_v<Fn&, void*>) {
      invoke_ = [](void* p, void* ctx) { (*static_cast<Fn*>(p))(ctx); };
    } else {
      invoke_ = [](void* p, void*) { (*static_cast<Fn*>(p))(); };
    }
  }

  void operator()(void* ctx = nullptr) { invoke_(buf_, ctx); }

  static constexpr std::size_t kStorage = 48;

 private:
  alignas(std::max_align_t) unsigned char buf_[kStorage];
  void (*invoke_)(void*, void*);
};

class EventQueue {
 public:
  using Callback = EventFn;

  EventQueue();

  /// Returns the queue to its just-constructed state — empty, at time
  /// origin, sequence and executed counters zeroed — while KEEPING the
  /// heap storage's capacity. A reused queue never re-grows its vector
  /// through the first rounds of a RoundContext round; this is the core
  /// of the context-reuse setup win.
  void reset();

  /// Schedules `cb` to run at absolute time `t` (must be >= now()).
  void schedule_at(SimTime t, Callback cb);

  /// Same, with a semantic tag for canonical state hashing. Untagged
  /// events make the queue unhashable (see EventTag).
  void schedule_at(SimTime t, Callback cb, EventTag tag);

  /// Schedules `cb` to run `d` after now().
  void schedule_after(Duration d, Callback cb) {
    schedule_at(now_ + d, std::move(cb));
  }

  /// Pops and runs the earliest event, advancing now(). `ctx` is handed
  /// to the callback (context-taking callables receive it; zero-arg
  /// callables ignore it). Returns false if the queue is empty.
  bool run_next(void* ctx = nullptr);

  /// Timestamp of the earliest pending event (never() if empty).
  SimTime peek_time() const;

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// Canonical state digest (DESIGN.md §10): now(), then every pending
  /// entry's (time, tag) in (t, seq) order. Sequence numbers themselves
  /// are NOT hashed — they are an artifact of scheduling history, but
  /// their relative order at equal timestamps determines firing order,
  /// which sorting by (t, seq) captures positionally. Any untagged entry
  /// marks the state unhashable.
  void hash_state(StateHasher& h) const;

  /// Variant with a per-entry canonicalizer (used by Kernel::hash_state).
  /// `canon` either hashes a canonical form of the tag and returns true,
  /// or returns false to declare the entry stale — a timestamped no-op
  /// whose delivery guard will drop it (e.g. a segment-end event whose
  /// generation no longer matches). Stale entries are skipped entirely,
  /// time included: their only effect on the run is an event-count tick,
  /// so their presence must not distinguish otherwise equal states.
  void hash_state(StateHasher& h,
                  const std::function<bool(StateHasher&, const EventTag&)>&
                      canon) const;

 private:
  struct Entry {
    SimTime t;
    std::uint64_t seq;
    EventTag tag;
    EventFn cb;
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

}  // namespace tocttou::sim
