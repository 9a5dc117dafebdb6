#include "tocttou/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "tocttou/common/error.h"

namespace tocttou::sim {

EventQueue::EventQueue() { heap_.reserve(64); }

void EventQueue::reset() {
  heap_.clear();  // keeps capacity — the point of reusing the queue
  now_ = SimTime::origin();
  next_seq_ = 0;
  executed_ = 0;
}

void EventQueue::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    std::size_t best = (r < n && earlier(heap_[r], heap_[l])) ? r : l;
    if (!earlier(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void EventQueue::schedule_at(SimTime t, Callback cb) {
  schedule_at(t, std::move(cb), EventTag{});
}

void EventQueue::schedule_at(SimTime t, Callback cb, EventTag tag) {
  TOCTTOU_CHECK(t >= now_, "cannot schedule an event in the past");
  heap_.push_back(Entry{t, next_seq_++, tag, cb});
  sift_up(heap_.size() - 1);
}

void EventQueue::hash_state(StateHasher& h) const {
  hash_state(h, [](StateHasher& hh, const EventTag& tag) {
    hh.u32(tag.kind);
    hh.i64(tag.a);
    hh.i64(tag.b);
    return true;
  });
}

void EventQueue::hash_state(
    StateHasher& h,
    const std::function<bool(StateHasher&, const EventTag&)>& canon) const {
  h.time(now_);
  // Heap layout is scheduling-history-dependent; (t, seq) order is the
  // canonical firing order.
  std::vector<const Entry*> order;
  order.reserve(heap_.size());
  for (const Entry& e : heap_) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const Entry* a, const Entry* b) {
    return earlier(*a, *b);
  });
  // Classify first so the hashed count covers only live entries.
  std::vector<const Entry*> live;
  live.reserve(order.size());
  for (const Entry* e : order) {
    StateHasher probe;  // dry-run classification, discard the bytes
    if (canon(probe, e->tag)) live.push_back(e);
  }
  h.u64(live.size());
  for (const Entry* e : live) {
    if (e->tag.kind == 0) h.mark_unhashable();
    h.time(e->t);
    canon(h, e->tag);
  }
}

bool EventQueue::run_next(void* ctx) {
  if (heap_.empty()) return false;
  // Entry is trivially copyable: "moving" the root out is a small memcpy
  // with no allocator traffic.
  Entry e = heap_.front();
  const Entry back = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = back;
    sift_down(0);
  }
  now_ = e.t;
  ++executed_;
  e.cb(ctx);
  return true;
}

SimTime EventQueue::peek_time() const {
  return heap_.empty() ? SimTime::never() : heap_.front().t;
}

}  // namespace tocttou::sim
