#include "tocttou/explore/exploring_scheduler.h"

#include <algorithm>

#include "tocttou/common/error.h"
#include "tocttou/sim/process.h"

namespace tocttou::explore {

using sim::CpuId;
using sim::Pid;
using sim::Process;

ExploringScheduler::ExploringScheduler(sched::LinuxSchedParams params,
                                       ChoiceSource* source)
    : inner_(params),
      wake_preempts_equal_priority_(params.wake_preempts_equal_priority),
      direct_(source) {
  TOCTTOU_CHECK(source != nullptr, "exploring scheduler needs a source");
}

ExploringScheduler::ExploringScheduler(sched::LinuxSchedParams params,
                                       ChoiceSource* const* slot)
    : inner_(params),
      wake_preempts_equal_priority_(params.wake_preempts_equal_priority),
      slot_(slot) {
  TOCTTOU_CHECK(slot != nullptr, "exploring scheduler needs a source slot");
}

std::unique_ptr<sim::Scheduler> ExploringScheduler::clone() const {
  return std::make_unique<ExploringScheduler>(*this);
}

void ExploringScheduler::init(int n_cpus) { inner_.init(n_cpus); }

CpuId ExploringScheduler::place(const Process& p,
                                const std::vector<CpuId>& idle_cpus,
                                const std::vector<CpuId>& allowed_cpus) {
  const CpuId policy_cpu = inner_.place(p, idle_cpus, allowed_cpus);
  if (idle_cpus.size() < 2) return policy_cpu;
  const auto it = std::find(idle_cpus.begin(), idle_cpus.end(), policy_cpu);
  TOCTTOU_CHECK(it != idle_cpus.end(),
                "policy placed on a non-idle cpu with idle cpus available");
  ChoiceContext ctx;
  ctx.kind = ChoiceKind::place;
  ctx.n = static_cast<int>(idle_cpus.size());
  ctx.policy = static_cast<int>(it - idle_cpus.begin());
  ctx.cpus = idle_cpus;
  return idle_cpus[static_cast<std::size_t>(source().choose(ctx))];
}

void ExploringScheduler::enqueue(const Process& p, CpuId cpu, bool front) {
  inner_.enqueue(p, cpu, front);
}

Pid ExploringScheduler::pick_next(CpuId cpu) {
  ChoiceContext ctx;
  ctx.procs = inner_.pick_candidates(cpu);
  if (ctx.procs.size() < 2) return inner_.pick_next(cpu);
  ctx.kind = ChoiceKind::pick;
  ctx.n = static_cast<int>(ctx.procs.size());
  ctx.policy = 0;  // FIFO order: the policy runs the head
  const auto option = static_cast<std::size_t>(source().choose(ctx));
  const Pid chosen = ctx.procs[option];
  TOCTTOU_CHECK(inner_.take(chosen, cpu), "chosen candidate left the queue");
  return chosen;
}

Pid ExploringScheduler::steal(CpuId thief) { return inner_.steal(thief); }

bool ExploringScheduler::should_preempt(const Process& woken,
                                        const Process& running) const {
  // Strict-priority preemption (e.g. a kernel thread over a user task)
  // happens on every real kernel — not a choice point. Equal-priority
  // wakeup preemption is the sub-tick timing artifact the paper's
  // attacks ride on, so branch it — but only between user tasks; a
  // kernel thread's wakeup follows the policy (canonical explore configs
  // run no kernel threads).
  if (woken.priority() != running.priority() || woken.kernel_thread() ||
      running.kernel_thread()) {
    return inner_.should_preempt(woken, running);
  }
  ChoiceContext ctx;
  ctx.kind = ChoiceKind::preempt;
  ctx.n = 2;  // 0 = don't preempt, 1 = preempt
  ctx.policy = wake_preempts_equal_priority_ ? 1 : 0;
  ctx.procs = {woken.pid(), running.pid()};
  return source().choose(ctx) == 1;
}

bool ExploringScheduler::should_yield_on_expiry(const Process& running,
                                                CpuId cpu) const {
  return inner_.should_yield_on_expiry(running, cpu);
}

Duration ExploringScheduler::fresh_slice(const Process& p) const {
  return inner_.fresh_slice(p);
}

std::size_t ExploringScheduler::queue_depth(CpuId cpu) const {
  return inner_.queue_depth(cpu);
}

}  // namespace tocttou::explore
