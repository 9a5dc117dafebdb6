// Exact-count checks for the kernel's metric producers: in a controlled
// scenario (no noise, no background load) every counter is predictable,
// and the counters must agree with the kernel's own per-process
// bookkeeping — the conservation laws the ISSUE's metrics tests pin.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../testing/programs.h"
#include "tocttou/metrics/metrics.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::sim {
namespace {

using namespace tocttou::literals;
using testing::ScriptOp;
using testing::ScriptProgram;

MachineSpec quiet_machine(int n_cpus) {
  MachineSpec m;
  m.n_cpus = n_cpus;
  m.timeslice = Duration::millis(100);
  m.context_switch_cost = Duration::zero();
  m.wakeup_latency = Duration::zero();
  m.noise = NoiseModel::none();
  m.background.enabled = false;
  return m;
}

std::unique_ptr<Scheduler> make_sched(Duration slice = Duration::millis(100)) {
  return std::make_unique<sched::LinuxLikeScheduler>(
      sched::LinuxSchedParams{slice, true});
}

TEST(KernelMetricsTest, CountsExactContextSwitchesUnderRoundRobin) {
  // Two 3ms computations sharing one CPU with a 1ms slice. With no
  // wakeups in the scenario, every dispatch is either a process's first
  // (2 spawns) or follows a preemption — and every preemption the
  // processes record individually shows up in the aggregate counter.
  Kernel k(quiet_machine(1), make_sched(Duration::millis(1)), 1);
  metrics::Registry reg;
  k.set_metrics(&reg);
  std::vector<Action> s1, s2;
  s1.push_back(Action::compute(Duration::millis(3)));
  s2.push_back(Action::compute(Duration::millis(3)));
  const Pid a = k.spawn(std::make_unique<ScriptProgram>(std::move(s1)),
                        {.name = "a"});
  const Pid b = k.spawn(std::make_unique<ScriptProgram>(std::move(s2)),
                        {.name = "b"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(reg.counter("sched.preemptions"),
            k.process(a).preemptions() + k.process(b).preemptions());
  EXPECT_EQ(reg.counter("sched.context_switches"),
            reg.counter("kernel.spawns") + reg.counter("sched.preemptions"));
  // Deterministic scenario: each process runs three 1ms slices and is
  // preempted at the end of each (the last expiry fires before exit).
  EXPECT_EQ(reg.counter("sched.context_switches"), 8u);
  EXPECT_EQ(reg.counter("kernel.spawns"), 2u);
  EXPECT_EQ(reg.gauge("kernel.processes_max"), 2);
  // Depth is sampled at enqueue time (make_ready); both spawns found a
  // queue holding just themselves, and preemption requeues bypass the
  // sample — so the max stays at 1 here.
  EXPECT_EQ(reg.gauge("sched.runqueue_depth_max"), 1);
}

TEST(KernelMetricsTest, SyscallCounterAndLatencyPerCompletedCall) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  metrics::Registry reg;
  k.set_metrics(&reg);
  auto op = [] {
    return std::make_unique<ScriptOp>(
        "fakecall", std::vector<Step>{Step::work(10_us), Step::done()});
  };
  std::vector<Action> s;
  s.push_back(Action::service(op()));
  s.push_back(Action::service(op()));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(reg.counter("kernel.syscalls"), 2u);
  EXPECT_EQ(reg.counter("kernel.syscalls.fakecall"), 2u);
  const metrics::Histogram* h = reg.histogram("kernel.syscall_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  // Noise-free: each call is exactly its 10us of kernel work.
  EXPECT_EQ(h->sum(), 2 * (10_us).ns());
}

TEST(KernelMetricsTest, SemWaitHistogramMatchesContention) {
  // P1 holds the semaphore for 100us; P2 arrives (via a 10us lead-in)
  // and must wait out the remaining 90us. Zero wakeup latency and no
  // noise make the waited span exact.
  Kernel k(quiet_machine(2), make_sched(), 1);
  metrics::Registry reg;
  k.set_metrics(&reg);
  Semaphore sem(42);
  auto holder = [&](Duration lead, Duration hold) {
    std::vector<Action> s;
    if (lead > Duration::zero()) s.push_back(Action::compute(lead));
    s.push_back(Action::service(std::make_unique<ScriptOp>(
        "lock", std::vector<Step>{Step::acquire(&sem), Step::work(hold),
                                  Step::release(&sem), Step::done()})));
    return std::make_unique<ScriptProgram>(std::move(s));
  };
  k.spawn(holder(Duration::zero(), 100_us), {.name = "p1"});
  k.spawn(holder(10_us, 100_us), {.name = "p2"});
  EXPECT_TRUE(k.run_to_exit());
  const metrics::Histogram* h = reg.histogram("fs.sem_wait_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(h->sum(), (90_us).ns());
  // The per-semaphore key names the semaphore by its inode.
  const metrics::Histogram* per = reg.histogram("fs.sem_wait_ns.i_sem:42");
  ASSERT_NE(per, nullptr);
  EXPECT_EQ(per->count(), 1u);
  EXPECT_EQ(per->sum(), h->sum());
}

TEST(KernelMetricsTest, NoRegistryMeansNoMetrics) {
  // The zero-overhead contract: without set_metrics the kernel must not
  // create or need a registry — this is just the null-check path running
  // a full scenario without crashing.
  Kernel k(quiet_machine(1), make_sched(Duration::millis(1)), 1);
  std::vector<Action> s1, s2;
  s1.push_back(Action::compute(Duration::millis(2)));
  s2.push_back(Action::compute(Duration::millis(2)));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s1)), {.name = "a"});
  k.spawn(std::make_unique<ScriptProgram>(std::move(s2)), {.name = "b"});
  EXPECT_TRUE(k.run_to_exit());
}

}  // namespace
}  // namespace tocttou::sim
