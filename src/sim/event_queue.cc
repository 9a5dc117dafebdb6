#include "tocttou/sim/event_queue.h"

#include <utility>

#include "tocttou/common/error.h"

namespace tocttou::sim {

EventQueue::EventQueue() { heap_.reserve(64); }

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

void EventQueue::schedule_at(SimTime t, Event ev) {
  TOCTTOU_CHECK(t >= now_, "cannot schedule an event in the past");
  heap_.push_back(Entry{t, next_seq_++, ev});
  sift_up(heap_.size() - 1);
}

bool EventQueue::pop(Event* out) {
  if (heap_.empty()) return false;
  const Entry e = heap_.front();
  const Entry back = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = back;
    sift_down(0);
  }
  now_ = e.t;
  ++executed_;
  *out = e.ev;
  return true;
}

SimTime EventQueue::peek_time() const {
  return heap_.empty() ? SimTime::never() : heap_.front().t;
}

}  // namespace tocttou::sim
