// Scheduler shim that turns nondeterministic scheduling decisions into
// explicit choice points.
//
// ExploringScheduler wraps the LinuxLikeScheduler policy and forwards
// every decision to it, EXCEPT at sites where more than one outcome is
// schedulable on real hardware:
//
//  * pick: >= 2 ready tasks share the highest priority level on a CPU —
//    the run-queue order among them is an artifact of wakeup timing, so
//    any of them may legitimately run next.
//  * preempt: a task wakes while an EQUAL-priority task runs — whether
//    the wakeup preempts depends on sub-tick timing (the paper's jitter).
//    Strict priority preemption (kernel thread over user task) is NOT a
//    choice point: it happens on every real kernel.
//  * place: >= 2 idle CPUs can accept a waking task — which one takes
//    the wakeup IPI first is timing-dependent.
//
// At each site the shim asks its ChoiceSource, passing the option the
// underlying policy would take, so option index `policy` always
// reproduces the un-instrumented scheduler exactly: a GuidedSource with
// an empty prefix yields a byte-identical round.
#pragma once

#include <memory>

#include "tocttou/explore/choice_source.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/scheduler.h"

namespace tocttou::explore {

class ExploringScheduler final : public sim::Scheduler {
 public:
  /// `source` must outlive the scheduler; it resolves every choice site.
  ExploringScheduler(sched::LinuxSchedParams params, ChoiceSource* source);

  /// Indirect form: every choice reads `*slot` at decision time, so the
  /// caller can swap sources without touching the scheduler — this is how
  /// a forked clone of a mid-round kernel is steered by a fresh
  /// ChoiceSource while its parent keeps its own. `slot` (and whatever it
  /// points to at each decision) must outlive the scheduler.
  ExploringScheduler(sched::LinuxSchedParams params,
                     ChoiceSource* const* slot);

  std::unique_ptr<sim::Scheduler> clone() const override;

  /// Re-points choice reads at another worker's slot. A checkpoint seed
  /// cloned by one worker and adopted by another must read the adopting
  /// worker's current source, not its minter's.
  void set_slot(ChoiceSource* const* slot) { slot_ = slot; }

  void init(int n_cpus) override;
  sim::CpuId place(const sim::Process& p,
                   const std::vector<sim::CpuId>& idle_cpus,
                   const std::vector<sim::CpuId>& allowed_cpus) override;
  void enqueue(const sim::Process& p, sim::CpuId cpu, bool front) override;
  sim::Pid pick_next(sim::CpuId cpu) override;
  sim::Pid steal(sim::CpuId thief) override;
  bool should_preempt(const sim::Process& woken,
                      const sim::Process& running) const override;
  bool should_yield_on_expiry(const sim::Process& running,
                              sim::CpuId cpu) const override;
  Duration fresh_slice(const sim::Process& p) const override;
  std::size_t queue_depth(sim::CpuId cpu) const override;

  /// Choice plumbing (source, slot) is explorer bookkeeping, not
  /// simulation state — the digest is the wrapped policy's queues.
  void hash_state(StateHasher& h) const override { inner_.hash_state(h); }

 private:
  ChoiceSource& source() const {
    return slot_ != nullptr ? **slot_ : *direct_;
  }

  sched::LinuxLikeScheduler inner_;
  bool wake_preempts_equal_priority_;
  /// The direct ctor's source; unused (nullptr) in slot mode.
  ChoiceSource* direct_ = nullptr;
  /// The caller's external slot; nullptr in direct mode. A copy shares
  /// the slot, or the source in direct mode.
  ChoiceSource* const* slot_ = nullptr;
};

}  // namespace tocttou::explore
