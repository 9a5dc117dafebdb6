// Reference run queue for the scheduler's differential test.
//
// The LinuxLikeScheduler queue operations over the plainest structure
// that has the same policy: per CPU, one list of queued processes kept
// sorted by priority (highest first), FIFO within a priority. Every
// operation is a linear scan, so it is slow and easy to check by eye;
// the bitmap queue in src/sched must agree with it on every observable.
// Test-only: nothing outside tests/ includes this file.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include "tocttou/sim/process.h"

namespace tocttou::sched {

class ReferenceRunQueue {
 public:
  explicit ReferenceRunQueue(int n_cpus)
      : cpus_(static_cast<std::size_t>(n_cpus)) {}

  /// Back: behind every queued task of equal or higher priority.
  /// Front: ahead of every queued task of equal or lower priority.
  void enqueue(sim::Process& p, sim::CpuId cpu, bool front) {
    List& q = at(cpu);
    const int prio = p.priority();
    const auto pos = std::find_if(q.begin(), q.end(), [&](sim::Process* o) {
      return front ? o->priority() <= prio : o->priority() < prio;
    });
    q.insert(pos, &p);
  }

  /// Pops from the head, dropping tasks that are no longer ready.
  sim::Process* pick_next(sim::CpuId cpu) {
    List& q = at(cpu);
    while (!q.empty()) {
      sim::Process* p = q.front();
      q.erase(q.begin());
      if (p->state() == sim::ProcState::ready) return p;
    }
    return nullptr;
  }

  /// From the deepest other CPU (the lowest-numbered one on a tie), the
  /// ready task nearest the tail whose affinity admits `thief`.
  sim::Process* steal(sim::CpuId thief) {
    List* victim = nullptr;
    for (std::size_t c = 0; c < cpus_.size(); ++c) {
      if (static_cast<sim::CpuId>(c) == thief) continue;
      if (cpus_[c].size() > (victim ? victim->size() : 0)) victim = &cpus_[c];
    }
    if (victim == nullptr) return nullptr;
    for (auto it = victim->rbegin(); it != victim->rend(); ++it) {
      sim::Process* p = *it;
      if (p->state() == sim::ProcState::ready &&
          (p->affinity_mask() >> thief & 1) != 0) {
        victim->erase(std::next(it).base());
        return p;
      }
    }
    return nullptr;
  }

  /// The ready tasks of the highest priority that has one, in FIFO order.
  std::vector<sim::Process*> pick_candidates(sim::CpuId cpu) const {
    std::vector<sim::Process*> out;
    for (sim::Process* p : at(cpu)) {
      if (p->state() != sim::ProcState::ready) continue;
      if (!out.empty() && p->priority() != out.front()->priority()) break;
      out.push_back(p);
    }
    return out;
  }

  bool take(sim::Process& p, sim::CpuId cpu) {
    List& q = at(cpu);
    const auto it = std::find(q.begin(), q.end(), &p);
    if (it == q.end()) return false;
    q.erase(it);
    return true;
  }

  void remove(const sim::Process& p) {
    for (List& q : cpus_) {
      const auto it = std::find(q.begin(), q.end(), &p);
      if (it != q.end()) {
        q.erase(it);
        return;
      }
    }
  }

  std::size_t queue_depth(sim::CpuId cpu) const { return at(cpu).size(); }

 private:
  using List = std::vector<sim::Process*>;

  List& at(sim::CpuId cpu) { return cpus_.at(static_cast<std::size_t>(cpu)); }
  const List& at(sim::CpuId cpu) const {
    return cpus_.at(static_cast<std::size_t>(cpu));
  }

  std::vector<List> cpus_;
};

}  // namespace tocttou::sched
