#include "tocttou/sim/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "../testing/programs.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/faults.h"

namespace tocttou::sim {
namespace {

using namespace tocttou::literals;
using testing::LambdaProgram;
using testing::ScriptOp;
using testing::ScriptProgram;

MachineSpec quiet_machine(int n_cpus) {
  MachineSpec m;
  m.n_cpus = n_cpus;
  m.timeslice = Duration::millis(100);
  m.context_switch_cost = Duration::zero();
  m.wakeup_latency = Duration::zero();
  m.libc_fault_cost = 6_us;
  m.noise = NoiseModel::none();
  m.background.enabled = false;
  return m;
}

std::unique_ptr<Scheduler> make_sched(
    Duration slice = Duration::millis(100), bool wake_equal = true) {
  return std::make_unique<sched::LinuxLikeScheduler>(
      sched::LinuxSchedParams{slice, wake_equal});
}

TEST(KernelTest, ComputeAdvancesVirtualTime) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  std::vector<Action> script;
  script.push_back(Action::compute(10_us));
  script.push_back(Action::compute(5_us));
  const Pid pid = k.spawn(std::make_unique<ScriptProgram>(std::move(script)),
                          {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.now(), SimTime::origin() + 15_us);
  EXPECT_TRUE(k.process(pid).exited());
  EXPECT_EQ(k.process(pid).cpu_time(), 15_us);
}

TEST(KernelTest, NoiseInflatesCompute) {
  MachineSpec m = quiet_machine(1);
  m.noise.rel_sigma = 0.05;
  m.noise.tick_cost_mean = 1500_ns;
  Kernel k(m, make_sched(), 1);
  std::vector<Action> script;
  script.push_back(Action::compute(Duration::millis(10)));
  k.spawn(std::make_unique<ScriptProgram>(std::move(script)), {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  // The multiplicative jitter is roughly zero-mean, so the effective time
  // lands near the nominal 10ms but (almost surely) not exactly on it.
  EXPECT_GT(k.now(), SimTime::origin() + Duration::millis(9));
  EXPECT_LT(k.now(), SimTime::origin() + Duration::millis(12));
  EXPECT_NE(k.now(), SimTime::origin() + Duration::millis(10));
}

TEST(KernelTest, TwoProcessesOneCpuRoundRobin) {
  Kernel k(quiet_machine(1), make_sched(Duration::millis(1)), 1);
  std::vector<Action> s1, s2;
  s1.push_back(Action::compute(Duration::millis(3), "a"));
  s2.push_back(Action::compute(Duration::millis(3), "b"));
  const Pid a = k.spawn(std::make_unique<ScriptProgram>(std::move(s1)),
                        {.name = "a"});
  const Pid b = k.spawn(std::make_unique<ScriptProgram>(std::move(s2)),
                        {.name = "b"});
  EXPECT_TRUE(k.run_to_exit());
  // Interleaved on one CPU: total wall time = 6ms, both preempted.
  EXPECT_EQ(k.now(), SimTime::origin() + Duration::millis(6));
  EXPECT_GT(k.process(a).preemptions(), 0u);
  EXPECT_GT(k.process(b).preemptions(), 0u);
}

TEST(KernelTest, TwoProcessesTwoCpusRunInParallel) {
  Kernel k(quiet_machine(2), make_sched(), 1);
  std::vector<Action> s1, s2;
  s1.push_back(Action::compute(Duration::millis(3)));
  s2.push_back(Action::compute(Duration::millis(3)));
  const Pid a = k.spawn(std::make_unique<ScriptProgram>(std::move(s1)),
                        {.name = "a"});
  const Pid b = k.spawn(std::make_unique<ScriptProgram>(std::move(s2)),
                        {.name = "b"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.now(), SimTime::origin() + Duration::millis(3));
  EXPECT_EQ(k.process(a).preemptions(), 0u);
  EXPECT_EQ(k.process(b).preemptions(), 0u);
  EXPECT_NE(k.process(a).last_cpu(), k.process(b).last_cpu());
}

TEST(KernelTest, AffinityPinsProcess) {
  Kernel k(quiet_machine(2), make_sched(), 1);
  std::vector<Action> s1;
  s1.push_back(Action::compute(1_us));
  SpawnOptions opts;
  opts.name = "pinned";
  opts.affinity_mask = 1ull << 1;
  const Pid pid =
      k.spawn(std::make_unique<ScriptProgram>(std::move(s1)), opts);
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.process(pid).last_cpu(), 1);
}

TEST(KernelTest, SemaphoreBlocksAndHandsOffFifo) {
  Kernel k(quiet_machine(2), make_sched(), 1);
  Semaphore sem(1);
  std::vector<int> order;

  auto holder = [&](int id, Duration hold) {
    std::vector<Action> s;
    std::vector<Step> steps;
    steps.push_back(Step::acquire(&sem));
    steps.push_back(Step::work(hold));
    steps.push_back(Step::release(&sem));
    steps.push_back(Step::done());
    s.push_back(Action::service(
        std::make_unique<ScriptOp>("op" + std::to_string(id), steps)));
    s.push_back(Action::mark("done" + std::to_string(id)));
    return std::make_unique<ScriptProgram>(std::move(s));
  };

  trace::RoundTrace tr;
  Kernel k2(quiet_machine(2), make_sched(), 1, &tr);
  k2.spawn(holder(1, 30_us), {.name = "first"});
  k2.spawn(holder(2, 10_us), {.name = "second"});
  EXPECT_TRUE(k2.run_to_exit());
  (void)order;
  // First holds the sem for 30us; second must wait on it (a sem_wait
  // event exists) and finish after the first.
  bool saw_wait = false;
  for (const auto& ev : tr.log.events()) {
    if (ev.category == trace::Category::sem_wait) saw_wait = true;
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_EQ(k2.now(), SimTime::origin() + 40_us);
}

TEST(KernelTest, WaitAndKernelWorkSpansCarryTheirLabels) {
  // One traced round with each kind of wait: "taker" blocks on the
  // semaphore "holder" holds, "flagger" waits on a flag "taker" sets, and
  // "holder" stalls on device I/O inside its call. A semaphore wait is
  // labelled "sem:i_sem:<ino>", a flag wait "flag:<name>", an I/O wait
  // and every kernel-work segment the name of the op in service.
  trace::RoundTrace tr;
  Kernel k(quiet_machine(2), make_sched(), 1, &tr);
  Semaphore sem(7);
  const FlagId flag = k.add_flag("go");
  std::vector<Action> holder, taker, flagger;
  holder.push_back(Action::service(std::make_unique<ScriptOp>(
      "hold", std::vector<Step>{Step::acquire(&sem), Step::work(30_us),
                                Step::release(&sem), Step::block_io(20_us),
                                Step::work(5_us), Step::done()})));
  taker.push_back(Action::compute(10_us));
  taker.push_back(Action::service(std::make_unique<ScriptOp>(
      "take", std::vector<Step>{Step::acquire(&sem), Step::work(4_us),
                                Step::release(&sem), Step::done()})));
  taker.push_back(Action::set_flag(flag));
  flagger.push_back(Action::wait_flag(flag));
  flagger.push_back(Action::compute(1_us));
  const Pid h = k.spawn(std::make_unique<ScriptProgram>(std::move(holder)),
                        {.name = "holder"});
  const Pid t = k.spawn(std::make_unique<ScriptProgram>(std::move(taker)),
                        {.name = "taker"});
  const Pid f = k.spawn(std::make_unique<ScriptProgram>(std::move(flagger)),
                        {.name = "flagger"});
  EXPECT_TRUE(k.run_to_exit());

  const std::map<Pid, std::string> op_of = {{h, "hold"}, {t, "take"}};
  int sem_waits = 0, flag_waits = 0, io_waits = 0, work = 0;
  for (const trace::TraceEvent& ev : tr.log.events()) {
    switch (ev.category) {
      case trace::Category::sem_wait:
        if (ev.pid == t) {
          EXPECT_EQ(ev.label, "sem:i_sem:7");
          ++sem_waits;
        } else {
          EXPECT_EQ(ev.pid, f);
          EXPECT_EQ(ev.label, "flag:go");
          ++flag_waits;
        }
        break;
      case trace::Category::io_wait:
        EXPECT_EQ(ev.pid, h);
        EXPECT_EQ(ev.label, "hold");
        ++io_waits;
        break;
      case trace::Category::syscall:
        ASSERT_TRUE(op_of.contains(ev.pid)) << ev.label;
        EXPECT_EQ(ev.label, op_of.at(ev.pid));
        ++work;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(sem_waits, 1);
  EXPECT_EQ(flag_waits, 1);
  EXPECT_EQ(io_waits, 1);
  EXPECT_EQ(work, 3);  // hold's two work steps and take's one
}

TEST(KernelTest, SemaphoreIsNotRecursive) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  Semaphore sem(1);
  std::vector<Step> steps;
  steps.push_back(Step::acquire(&sem));
  steps.push_back(Step::acquire(&sem));  // invalid
  std::vector<Action> s;
  s.push_back(Action::service(std::make_unique<ScriptOp>("bad", steps)));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_THROW(k.run_to_exit(), SimError);
}

TEST(KernelTest, ExitWhileHoldingSemaphoreThrows) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  Semaphore sem(1);
  std::vector<Step> steps;
  steps.push_back(Step::acquire(&sem));
  steps.push_back(Step::done());  // never released
  std::vector<Action> s;
  s.push_back(Action::service(std::make_unique<ScriptOp>("leak", steps)));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_THROW(k.run_to_exit(), SimError);
}

TEST(KernelTest, BlockIoReleasesCpu) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  // P1 blocks on IO for 50us; P2 computes 20us meanwhile.
  std::vector<Step> steps;
  steps.push_back(Step::block_io(50_us));
  steps.push_back(Step::done());
  std::vector<Action> s1, s2;
  s1.push_back(Action::service(std::make_unique<ScriptOp>("io", steps)));
  s2.push_back(Action::compute(20_us));
  const Pid p1 = k.spawn(std::make_unique<ScriptProgram>(std::move(s1)),
                         {.name = "io"});
  const Pid p2 = k.spawn(std::make_unique<ScriptProgram>(std::move(s2)),
                         {.name = "cpu"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.now(), SimTime::origin() + 50_us);  // overlapped
  EXPECT_EQ(k.process(p1).cpu_time(), Duration::zero());
  EXPECT_EQ(k.process(p2).cpu_time(), 20_us);
}

TEST(KernelTest, SleepWakesAtDeadline) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  std::vector<Action> s;
  s.push_back(Action::sleep_for(100_us));
  s.push_back(Action::compute(1_us));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.now(), SimTime::origin() + 101_us);
}

TEST(KernelTest, EventFlagHandshake) {
  Kernel k(quiet_machine(2), make_sched(), 1);
  const FlagId flag = k.add_flag("go");
  std::vector<Action> waiter, setter;
  waiter.push_back(Action::wait_flag(flag));
  waiter.push_back(Action::compute(5_us));
  setter.push_back(Action::compute(40_us));
  setter.push_back(Action::set_flag(flag));
  const Pid w = k.spawn(std::make_unique<ScriptProgram>(std::move(waiter)),
                        {.name = "w"});
  k.spawn(std::make_unique<ScriptProgram>(std::move(setter)), {.name = "s"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.now(), SimTime::origin() + 45_us);
  EXPECT_TRUE(k.process(w).exited());
}

TEST(KernelTest, WaitOnAlreadySetFlagDoesNotBlock) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  const FlagId flag = k.add_flag("go");
  std::vector<Action> s;
  s.push_back(Action::set_flag(flag));
  s.push_back(Action::wait_flag(flag));
  s.push_back(Action::compute(1_us));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.now(), SimTime::origin() + 1_us);
}

TEST(KernelTest, LibcPageFaultOnlyOnFirstUse) {
  trace::RoundTrace tr;
  Kernel k(quiet_machine(1), make_sched(), 1, &tr);
  auto op = [&](int page) {
    std::vector<Step> steps;
    steps.push_back(Step::work(4_us));
    steps.push_back(Step::done());
    return Action::service(std::make_unique<ScriptOp>("sys", steps, page));
  };
  std::vector<Action> s;
  s.push_back(op(1));
  s.push_back(op(1));  // same page: no second trap
  s.push_back(op(2));  // new page: trap again
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  int traps = 0;
  for (const auto& ev : tr.log.events()) {
    if (ev.category == trace::Category::trap) ++traps;
  }
  EXPECT_EQ(traps, 2);
  // 3 ops x 4us + 2 traps x 6us.
  EXPECT_EQ(k.now(), SimTime::origin() + 24_us);
}

TEST(KernelTest, LibcPageIdsFitTheProcessMask) {
  // A process keeps its mapped libc pages in one 64-bit mask: page 63 is
  // the last it can map, and a call on a page outside [0, 64) is a
  // program bug the kernel reports.
  for (const int page : {63, 64, -2}) {
    Kernel k(quiet_machine(1), make_sched(), 1);
    std::vector<Action> s;
    s.push_back(Action::service(std::make_unique<ScriptOp>(
        "sys", std::vector<Step>{Step::done()}, page)));
    k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
    if (page == 63) {
      EXPECT_TRUE(k.run_to_exit());
    } else {
      EXPECT_THROW(k.run_to_exit(), SimError) << page;
    }
  }
}

TEST(KernelTest, TrapCostSeparateFromSyscallEnter) {
  trace::RoundTrace tr;
  Kernel k(quiet_machine(1), make_sched(), 1, &tr);
  std::vector<Step> steps;
  steps.push_back(Step::work(4_us));
  steps.push_back(Step::done());
  std::vector<Action> s;
  s.push_back(
      Action::service(std::make_unique<ScriptOp>("sys", steps, 1)));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  ASSERT_EQ(tr.journal.records().size(), 1u);
  // The journal's enter time is *after* the 6us trap.
  EXPECT_EQ(tr.journal.records()[0].enter, SimTime::origin() + 6_us);
  EXPECT_EQ(tr.journal.records()[0].exit, SimTime::origin() + 10_us);
}

TEST(KernelTest, ResultIsReadableOnlyRightAfterACall) {
  // A syscall's result reaches the next() that follows the call, and
  // only that one: reading it in a next() that follows a compute action
  // is a program bug the kernel reports.
  Kernel k(quiet_machine(1), make_sched(), 1);
  int step = 0;
  Errno seen = Errno::ok;
  k.spawn(std::make_unique<LambdaProgram>([&](ProgramContext& ctx) {
            switch (step++) {
              case 0:
                return Action::service(std::make_unique<ScriptOp>(
                    "sys", std::vector<Step>{Step::done(Errno::eexist)}));
              case 1:
                EXPECT_TRUE(ctx.has_result());
                seen = ctx.result().err;
                return Action::compute(1_us);
              default:
                EXPECT_FALSE(ctx.has_result());
                (void)ctx.result();
                return Action::exit_proc();
            }
          }),
          {.name = "p"});
  EXPECT_THROW(k.run_to_exit(), SimError);
  EXPECT_EQ(seen, Errno::eexist);
  EXPECT_EQ(step, 3);
}

TEST(KernelTest, EntryFaultIsDecidedAtTheFirstAdvance) {
  // The kernel asks the injector whether a syscall fails at entry at the
  // op's first advance: after its libc trap, and after a preemption the
  // trap deferred. The injector counts its queries, so an nth=1 spec
  // fails whichever call the kernel asks about first. "lo" traps for 6us
  // on its call's libc page; "hi" arrives during the trap and preempts
  // lo at the trap's end, after lo's syscall entry but before its first
  // advance — so hi's call is asked about first and fails.
  trace::RoundTrace tr;
  Kernel k(quiet_machine(1), make_sched(), 1, &tr);
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::parse("error:0:errno=eio:nth=1", &plan, &err))
      << err;
  FaultInjector faults(plan, 1);
  k.set_fault_injector(&faults);
  const auto call = [](const char* name, int page) {
    return Action::service(std::make_unique<ScriptOp>(
        name, std::vector<Step>{Step::work(4_us), Step::done()}, page));
  };
  std::vector<Action> lo, hi;
  lo.push_back(call("slow", 1));
  hi.push_back(call("fast", ServiceOp::kNoLibcPage));
  const Pid l = k.spawn(std::make_unique<ScriptProgram>(std::move(lo)),
                        {.name = "lo", .priority = 0});
  const Pid h = k.spawn(std::make_unique<ScriptProgram>(std::move(hi)),
                        {.name = "hi", .priority = 10});
  EXPECT_TRUE(k.run_to_exit());
  ASSERT_EQ(tr.journal.records().size(), 2u);
  const trace::SyscallRecord& first = tr.journal.records()[0];
  const trace::SyscallRecord& second = tr.journal.records()[1];
  EXPECT_EQ(first.pid, h);
  EXPECT_EQ(first.result, Errno::eio);
  EXPECT_EQ(first.enter, first.exit);  // failed before any work
  EXPECT_EQ(second.pid, l);
  EXPECT_EQ(second.result, Errno::ok);
  EXPECT_EQ(second.enter, SimTime::origin() + 6_us);  // after the trap
  EXPECT_EQ(k.process(l).preemptions(), 1u);
  EXPECT_EQ(faults.stats().errors_injected, 1u);
}

TEST(KernelTest, HigherPriorityWakeupPreemptsUserCompute) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  // Low-prio computes 100us; high-prio sleeps 10us then computes 5us.
  std::vector<Action> lo, hi;
  lo.push_back(Action::compute(100_us));
  hi.push_back(Action::sleep_for(10_us));
  hi.push_back(Action::compute(5_us));
  const Pid l = k.spawn(std::make_unique<ScriptProgram>(std::move(lo)),
                        {.name = "lo", .priority = 0});
  const Pid h = k.spawn(std::make_unique<ScriptProgram>(std::move(hi)),
                        {.name = "hi", .priority = 10});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.now(), SimTime::origin() + 105_us);
  EXPECT_GE(k.process(l).preemptions(), 1u);
  EXPECT_EQ(k.process(h).preemptions(), 0u);
}

TEST(KernelTest, TimesliceExpiryYieldsOnlyWhenSomeoneWaits) {
  Kernel k(quiet_machine(1), make_sched(Duration::millis(1)), 1);
  std::vector<Action> s;
  s.push_back(Action::compute(Duration::millis(5)));
  const Pid p = k.spawn(std::make_unique<ScriptProgram>(std::move(s)),
                        {.name = "only"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.process(p).preemptions(), 0u);  // alone: never yields
  EXPECT_EQ(k.now(), SimTime::origin() + Duration::millis(5));
}

TEST(KernelTest, MarksAppearInTrace) {
  trace::RoundTrace tr;
  Kernel k(quiet_machine(1), make_sched(), 1, &tr);
  std::vector<Action> s;
  s.push_back(Action::mark("hello"));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  const auto& events = tr.log.events();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                          [](const trace::TraceEvent& ev) {
                            return ev.pid == 1 &&
                                   ev.category == trace::Category::marker &&
                                   ev.label == "hello";
                          }));
}

TEST(KernelTest, JournalOnlyModeSkipsEvents) {
  trace::RoundTrace tr;
  tr.log_events = false;
  Kernel k(quiet_machine(1), make_sched(), 1, &tr);
  std::vector<Step> steps;
  steps.push_back(Step::work(4_us));
  steps.push_back(Step::done());
  std::vector<Action> s;
  s.push_back(Action::service(std::make_unique<ScriptOp>("sys", steps)));
  s.push_back(Action::compute(2_us));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_TRUE(tr.log.empty());
  EXPECT_EQ(tr.journal.records().size(), 1u);
}

TEST(KernelTest, BackgroundLoadRunsAtHighPriority) {
  MachineSpec m = quiet_machine(1);
  m.background.enabled = true;
  m.background.mean_interval = Duration::millis(1);
  Kernel k(m, make_sched(), 7);
  k.start_background_load();
  std::vector<Action> s;
  s.push_back(Action::compute(Duration::millis(20)));
  const Pid p = k.spawn(std::make_unique<ScriptProgram>(std::move(s)),
                        {.name = "victim"});
  EXPECT_TRUE(k.run_until([&] { return k.process(p).exited(); },
                          SimTime::origin() + Duration::seconds(1)));
  // ~20 daemon bursts expected to have preempted the victim.
  EXPECT_GT(k.process(p).preemptions(), 3u);
  // Wall time exceeds pure compute because bursts stole the CPU.
  EXPECT_GT(k.now(), SimTime::origin() + Duration::millis(20));
}

TEST(KernelTest, RunUntilHonorsLimit) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  std::vector<Action> s;
  s.push_back(Action::compute(Duration::seconds(10)));
  k.spawn(std::make_unique<ScriptProgram>(std::move(s)), {.name = "p"});
  EXPECT_FALSE(
      k.run_to_exit(SimTime::origin() + Duration::millis(1)));
}

TEST(KernelTest, StopPredicateShortCircuits) {
  Kernel k(quiet_machine(1), make_sched(), 1);
  int calls = 0;
  auto infinite = std::make_unique<LambdaProgram>([&](ProgramContext&) {
    ++calls;
    return Action::compute(1_us);
  });
  k.spawn(std::move(infinite), {.name = "spinner"});
  EXPECT_TRUE(k.run_until([&] { return calls >= 10; }));
  EXPECT_GE(calls, 10);
  EXPECT_LT(calls, 20);
}

TEST(KernelTest, SemaphoreHandoffIncludesWakeupLatency) {
  MachineSpec m = quiet_machine(2);
  m.wakeup_latency = 5_us;
  Kernel k(m, make_sched(), 1);
  Semaphore sem(1);
  auto holder = [&](Duration hold) {
    std::vector<Step> steps;
    steps.push_back(Step::acquire(&sem));
    steps.push_back(Step::work(hold));
    steps.push_back(Step::release(&sem));
    steps.push_back(Step::done());
    std::vector<Action> s;
    s.push_back(Action::service(std::make_unique<ScriptOp>("op", steps)));
    return std::make_unique<ScriptProgram>(std::move(s));
  };
  k.spawn(holder(20_us), {.name = "first"});
  k.spawn(holder(10_us), {.name = "second"});
  EXPECT_TRUE(k.run_to_exit());
  // first: 0..20 holds; handoff at 20 (+5 wake); second works 25..35.
  EXPECT_EQ(k.now(), SimTime::origin() + 35_us);
}

TEST(KernelTest, EventFlagWakesAllWaiters) {
  Kernel k(quiet_machine(4), make_sched(), 1);
  const FlagId flag = k.add_flag("go");
  std::vector<Pid> waiters;
  for (int i = 0; i < 3; ++i) {
    std::vector<Action> s;
    s.push_back(Action::wait_flag(flag));
    s.push_back(Action::compute(1_us));
    waiters.push_back(k.spawn(
        std::make_unique<ScriptProgram>(std::move(s)),
        {.name = "w" + std::to_string(i)}));
  }
  std::vector<Action> setter;
  setter.push_back(Action::compute(10_us));
  setter.push_back(Action::set_flag(flag));
  k.spawn(std::make_unique<ScriptProgram>(std::move(setter)),
          {.name = "setter"});
  EXPECT_TRUE(k.run_to_exit());
  for (Pid w : waiters) EXPECT_TRUE(k.process(w).exited());
  EXPECT_TRUE(k.flag(flag).is_set());
}

TEST(KernelTest, IdleCpuStealsFromLoadedQueue) {
  // Three processes on two CPUs: one is a spinner, one blocks quickly,
  // the third must not starve behind the spinner once a CPU goes idle.
  Kernel k(quiet_machine(2), make_sched(), 1);
  std::vector<Action> spinner, blocker, third;
  spinner.push_back(Action::compute(Duration::millis(50), "spin"));
  blocker.push_back(Action::sleep_for(Duration::millis(50)));
  third.push_back(Action::compute(10_us, "third"));
  k.spawn(std::make_unique<ScriptProgram>(std::move(spinner)),
          {.name = "spinner"});
  k.spawn(std::make_unique<ScriptProgram>(std::move(blocker)),
          {.name = "blocker"});
  const Pid t = k.spawn(std::make_unique<ScriptProgram>(std::move(third)),
                        {.name = "third"});
  EXPECT_TRUE(k.run_until([&] { return k.process(t).exited(); },
                          SimTime::origin() + Duration::millis(5)));
  EXPECT_LT(k.now(), SimTime::origin() + Duration::millis(1));
}

TEST(KernelTest, StealRespectsAffinity) {
  // The queued process is pinned to CPU 0; idle CPU 1 must NOT steal it.
  Kernel k(quiet_machine(2), make_sched(), 1);
  std::vector<Action> spinner, blocker, pinned;
  spinner.push_back(Action::compute(Duration::millis(5), "spin"));
  blocker.push_back(Action::sleep_for(Duration::millis(5)));
  pinned.push_back(Action::compute(10_us));
  k.spawn(std::make_unique<ScriptProgram>(std::move(spinner)),
          {.name = "spinner", .affinity_mask = 1ull << 0});
  k.spawn(std::make_unique<ScriptProgram>(std::move(blocker)),
          {.name = "blocker", .affinity_mask = 1ull << 1});
  SpawnOptions opts;
  opts.name = "pinned";
  opts.affinity_mask = 1ull << 0;
  const Pid p = k.spawn(std::make_unique<ScriptProgram>(std::move(pinned)),
                        opts);
  EXPECT_TRUE(k.run_to_exit());
  EXPECT_EQ(k.process(p).last_cpu(), 0);
  // It had to wait for the spinner (no early completion on CPU 1).
  EXPECT_GE(k.now(), SimTime::origin() + Duration::millis(5));
}

TEST(KernelTest, InitialSliceOverride) {
  Kernel k(quiet_machine(1), make_sched(Duration::millis(10)), 1);
  std::vector<Action> s1, s2;
  s1.push_back(Action::compute(Duration::millis(5), "a"));
  s2.push_back(Action::compute(Duration::millis(1), "b"));
  SpawnOptions o1;
  o1.name = "short-slice";
  o1.initial_slice = Duration::millis(1);
  const Pid a =
      k.spawn(std::make_unique<ScriptProgram>(std::move(s1)), o1);
  k.spawn(std::make_unique<ScriptProgram>(std::move(s2)), {.name = "b"});
  EXPECT_TRUE(k.run_to_exit());
  // 'a' exhausted its 1ms slice with 'b' waiting and was preempted.
  EXPECT_GE(k.process(a).preemptions(), 1u);
}

}  // namespace
}  // namespace tocttou::sim
