// Scheduler policy interface.
//
// The kernel owns the mechanism (dispatching, preemption plumbing, time
// accounting); a Scheduler supplies the policy: run-queue order, CPU
// placement, wakeup preemption, and slice sizing. Run queues name
// processes by pid and hold no pointer, so a checkpoint's copy of a
// scheduler is a plain copy. tocttou/sched provides the
// Linux-2.6-flavored implementation used by all experiments.
#pragma once

#include <memory>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/common/time.h"
#include "tocttou/sim/ids.h"

namespace tocttou::sim {

class Process;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called when the machine spec is known (before any enqueue).
  virtual void init(int n_cpus) = 0;

  /// Picks the CPU a newly-runnable process should be enqueued on.
  /// `idle_cpus` lists currently idle CPUs allowed by the affinity mask;
  /// `allowed_cpus` lists all allowed CPUs.
  virtual CpuId place(const Process& p, const std::vector<CpuId>& idle_cpus,
                      const std::vector<CpuId>& allowed_cpus) = 0;

  /// Enqueues a runnable process on `cpu`'s queue. `front` places it at
  /// the head of its priority level — used for tasks preempted by a
  /// wakeup, which must resume before their round-robin peers (as in the
  /// Linux O(1) scheduler, where a preempted task never left the head of
  /// its list).
  /// A queued process is always ready: the kernel enqueues only ready
  /// processes and changes a process's state only once it is dequeued.
  virtual void enqueue(const Process& p, CpuId cpu, bool front) = 0;

  /// Pops the next process to run on `cpu`; kNoPid if the queue is empty.
  virtual Pid pick_next(CpuId cpu) = 0;

  /// Idle balancing: `thief` has an empty queue; pull a queued process
  /// whose affinity allows `thief` from another CPU's queue (kNoPid if
  /// nothing can be migrated). Mirrors the Linux idle-pull path — without
  /// it, a third process can starve behind a spinner while another CPU
  /// idles.
  virtual Pid steal(CpuId thief) = 0;

  /// True if `woken` (just enqueued on `cpu`) should preempt `running`.
  virtual bool should_preempt(const Process& woken,
                              const Process& running) const = 0;

  /// True if a process whose slice expired on `cpu` must yield (i.e.
  /// someone of equal-or-higher priority is waiting there).
  virtual bool should_yield_on_expiry(const Process& running,
                                      CpuId cpu) const = 0;

  /// Fresh time slice for a (re)started process.
  virtual Duration fresh_slice(const Process& p) const = 0;

  /// Number of queued (not running) processes on `cpu`.
  virtual std::size_t queue_depth(CpuId cpu) const = 0;

  /// Checkpoint support: a copy of the run-queue state for a cloned
  /// kernel. Fails hard by default (see Program::clone).
  virtual std::unique_ptr<Scheduler> clone() const {
    TOCTTOU_CHECK(false, "scheduler does not support checkpoint clone");
    return nullptr;
  }

  /// Canonical state digest contribution (DESIGN.md §10): run-queue
  /// contents in canonical order. Unknown policies are unhashable by
  /// default — the explorer then never merges, which is always safe.
  virtual void hash_state(StateHasher& h) const { h.mark_unhashable(); }
};

}  // namespace tocttou::sim
