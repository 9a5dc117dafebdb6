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
#include <cstdint>
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
  void enqueue(const sim::Process& p, sim::CpuId cpu, bool front) {
    List& q = at(cpu);
    const int prio = p.priority();
    const auto pos = std::find_if(q.begin(), q.end(), [&](const Queued& o) {
      return front ? o.priority <= prio : o.priority < prio;
    });
    q.insert(pos, Queued{p.pid(), prio, p.affinity_mask()});
  }

  /// Pops from the head.
  sim::Pid pick_next(sim::CpuId cpu) {
    List& q = at(cpu);
    if (q.empty()) return sim::kNoPid;
    const sim::Pid pid = q.front().pid;
    q.erase(q.begin());
    return pid;
  }

  /// From the deepest other CPU (the lowest-numbered one on a tie), the
  /// task nearest the tail whose affinity admits `thief`.
  sim::Pid steal(sim::CpuId thief) {
    List* victim = nullptr;
    for (std::size_t c = 0; c < cpus_.size(); ++c) {
      if (static_cast<sim::CpuId>(c) == thief) continue;
      if (cpus_[c].size() > (victim ? victim->size() : 0)) victim = &cpus_[c];
    }
    if (victim == nullptr) return sim::kNoPid;
    for (auto it = victim->rbegin(); it != victim->rend(); ++it) {
      if ((it->affinity >> thief & 1) != 0) {
        const sim::Pid pid = it->pid;
        victim->erase(std::next(it).base());
        return pid;
      }
    }
    return sim::kNoPid;
  }

  /// The tasks of the highest queued priority, in FIFO order.
  std::vector<sim::Pid> pick_candidates(sim::CpuId cpu) const {
    std::vector<sim::Pid> out;
    const List& q = at(cpu);
    for (const Queued& e : q) {
      if (e.priority != q.front().priority) break;
      out.push_back(e.pid);
    }
    return out;
  }

  bool take(sim::Pid pid, sim::CpuId cpu) {
    List& q = at(cpu);
    const auto it = find(q, pid);
    if (it == q.end()) return false;
    q.erase(it);
    return true;
  }

  std::size_t queue_depth(sim::CpuId cpu) const { return at(cpu).size(); }

 private:
  struct Queued {
    sim::Pid pid;
    int priority;
    std::uint64_t affinity;
  };
  using List = std::vector<Queued>;

  static List::iterator find(List& q, sim::Pid pid) {
    return std::find_if(q.begin(), q.end(),
                        [&](const Queued& e) { return e.pid == pid; });
  }
  List& at(sim::CpuId cpu) { return cpus_.at(static_cast<std::size_t>(cpu)); }
  const List& at(sim::CpuId cpu) const {
    return cpus_.at(static_cast<std::size_t>(cpu));
  }

  std::vector<List> cpus_;
};

}  // namespace tocttou::sched
