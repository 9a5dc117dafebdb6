// Scheduler policy unit tests. The policy object is exercised directly
// here (no kernel); the integration behaviour is covered in sim/kernel
// and integration tests.
#include "tocttou/sched/linux_sched.h"

#include <gtest/gtest.h>

#include "../testing/programs.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::sched {
namespace {

using namespace tocttou::literals;
using sim::Action;
using sim::Kernel;
using sim::MachineSpec;
using sim::Pid;

// Process has no public constructor; tests obtain real processes from a
// kernel, then probe the scheduler policy through kernel behaviour and
// the policy's own const interface.

MachineSpec machine(int n_cpus) {
  MachineSpec m;
  m.n_cpus = n_cpus;
  m.context_switch_cost = Duration::zero();
  m.wakeup_latency = Duration::zero();
  m.noise = sim::NoiseModel::none();
  m.background.enabled = false;
  return m;
}

TEST(LinuxSchedTest, FreshSliceIsConfiguredQuantum) {
  LinuxLikeScheduler s(LinuxSchedParams{Duration::millis(42), false});
  s.init(1);
  Kernel k(machine(1), std::make_unique<LinuxLikeScheduler>(
                           LinuxSchedParams{Duration::millis(42), false}),
           1);
  std::vector<Action> a;
  a.push_back(Action::compute(1_us));
  const Pid p = k.spawn(std::make_unique<testing::ScriptProgram>(std::move(a)),
                        {.name = "p"});
  k.run_to_exit();
  // slice_left = 42ms - 1us after the single segment.
  EXPECT_EQ(k.process(p).slice_left(), Duration::millis(42) - 1_us);
}

TEST(LinuxSchedTest, PlacementPrefersIdleCpu) {
  // Two long computers on a 2-CPU box must end up on different CPUs.
  Kernel k(machine(2),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  std::vector<Action> a, b;
  a.push_back(Action::compute(Duration::millis(1)));
  b.push_back(Action::compute(Duration::millis(1)));
  const Pid pa =
      k.spawn(std::make_unique<testing::ScriptProgram>(std::move(a)),
              {.name = "a"});
  const Pid pb =
      k.spawn(std::make_unique<testing::ScriptProgram>(std::move(b)),
              {.name = "b"});
  k.run_to_exit();
  EXPECT_NE(k.process(pa).last_cpu(), k.process(pb).last_cpu());
}

TEST(LinuxSchedTest, PlacementPrefersLastCpuWhenIdle) {
  // A process that sleeps and wakes with both CPUs idle returns to its
  // previous CPU (cache affinity).
  Kernel k(machine(2),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  std::vector<Action> a;
  a.push_back(Action::compute(1_us));
  a.push_back(Action::sleep_for(10_us));
  a.push_back(Action::compute(1_us));
  const Pid p =
      k.spawn(std::make_unique<testing::ScriptProgram>(std::move(a)),
              {.name = "p"});
  k.run_to_exit();
  EXPECT_EQ(k.process(p).last_cpu(), 0);
}

TEST(LinuxSchedTest, EqualPriorityWakeupPreemptionConfigurable) {
  // With wake_preempts_equal_priority=false, a woken equal-priority task
  // waits for the time-slice boundary.
  for (bool wake_equal : {false, true}) {
    Kernel k(machine(1),
             std::make_unique<LinuxLikeScheduler>(
                 LinuxSchedParams{Duration::millis(100), wake_equal}),
             1);
    std::vector<Action> sleeper, spinner;
    sleeper.push_back(Action::sleep_for(10_us));
    sleeper.push_back(Action::compute(1_us));
    spinner.push_back(Action::compute(200_us));
    k.spawn(std::make_unique<testing::ScriptProgram>(std::move(sleeper)),
            {.name = "sleeper"});
    const Pid sp =
        k.spawn(std::make_unique<testing::ScriptProgram>(std::move(spinner)),
                {.name = "spinner"});
    k.run_to_exit();
    // The machine is work-conserving either way (201us of total work)...
    EXPECT_EQ(k.now(), SimTime::origin() + 201_us);
    // ...but only the preempting configuration interrupts the spinner.
    if (wake_equal) {
      EXPECT_GE(k.process(sp).preemptions(), 1u);
    } else {
      EXPECT_EQ(k.process(sp).preemptions(), 0u);
    }
  }
}

TEST(LinuxSchedTest, StrictPriorityOrder) {
  // Three ready tasks on one CPU: the high-priority one runs first.
  Kernel k(machine(1),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  std::vector<int> order;
  auto prog = [&](int id) {
    return std::make_unique<testing::LambdaProgram>(
        [&, id, step = 0](sim::ProgramContext&) mutable {
          if (step++ == 0) {
            order.push_back(id);
            return Action::compute(1_us);
          }
          return Action::exit_proc();
        });
  };
  k.spawn(prog(0), {.name = "lo", .priority = 0});
  k.spawn(prog(1), {.name = "hi", .priority = 5});
  k.spawn(prog(2), {.name = "mid", .priority = 3});
  k.run_to_exit();
  // First spawned (lo) gets dispatched immediately (CPU was idle); the
  // remaining two run in priority order.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(LinuxSchedTest, QueueDepthTracksEnqueues) {
  LinuxLikeScheduler s(LinuxSchedParams{});
  s.init(2);
  EXPECT_EQ(s.queue_depth(0), 0u);
  EXPECT_EQ(s.queue_depth(1), 0u);
}

TEST(LinuxSchedTest, StealRescuesTaskBehindPinnedSpinner) {
  // Idle-pull starvation: X (pinned to CPU 0) spins for 500us with Y
  // queued behind it; CPU 1 frees up after 50us and must steal Y rather
  // than idle while Y starves. Work-conserving finish: 500us, not 550us.
  Kernel k(machine(2),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  std::vector<Action> spin, zshort, y;
  spin.push_back(Action::compute(500_us));
  zshort.push_back(Action::compute(50_us));
  y.push_back(Action::compute(50_us));
  k.spawn(std::make_unique<testing::ScriptProgram>(std::move(spin)),
          {.name = "x", .affinity_mask = 1});
  k.spawn(std::make_unique<testing::ScriptProgram>(std::move(zshort)),
          {.name = "z"});
  const Pid py =
      k.spawn(std::make_unique<testing::ScriptProgram>(std::move(y)),
              {.name = "y"});
  k.run_to_exit();
  EXPECT_EQ(k.now(), SimTime::origin() + 500_us);
  EXPECT_EQ(k.process(py).last_cpu(), 1);
}

TEST(LinuxSchedTest, StealRespectsAffinity) {
  // Same shape, but Y is pinned to CPU 0 too: CPU 1 may NOT steal it,
  // so the round is serialized behind the spinner (550us total).
  Kernel k(machine(2),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  std::vector<Action> spin, zshort, y;
  spin.push_back(Action::compute(500_us));
  zshort.push_back(Action::compute(50_us));
  y.push_back(Action::compute(50_us));
  k.spawn(std::make_unique<testing::ScriptProgram>(std::move(spin)),
          {.name = "x", .affinity_mask = 1});
  k.spawn(std::make_unique<testing::ScriptProgram>(std::move(zshort)),
          {.name = "z"});
  const Pid py =
      k.spawn(std::make_unique<testing::ScriptProgram>(std::move(y)),
              {.name = "y", .affinity_mask = 1});
  k.run_to_exit();
  EXPECT_EQ(k.now(), SimTime::origin() + 550_us);
  EXPECT_EQ(k.process(py).last_cpu(), 0);
}

TEST(LinuxSchedTest, PreemptedTaskResumesBeforeRoundRobinPeers) {
  // A preempted by a wakeup goes back to the HEAD of its priority level
  // (enqueue front=true): after the waker exits, A resumes before its
  // round-robin peer B that was already queued behind it.
  Kernel k(machine(1),
           std::make_unique<LinuxLikeScheduler>(
               LinuxSchedParams{Duration::millis(100), true}),
           1);
  std::vector<int> done_order;
  auto worker = [&](int id, Duration work) {
    return std::make_unique<testing::LambdaProgram>(
        [&, id, work, step = 0](sim::ProgramContext&) mutable {
          if (step++ == 0) return Action::compute(work);
          done_order.push_back(id);
          return Action::exit_proc();
        });
  };
  // Spawned first so it holds the CPU just long enough to start its
  // sleep; A then runs and is mid-slice when the sleeper wakes.
  std::vector<Action> s;
  s.push_back(Action::sleep_for(50_us));
  s.push_back(Action::compute(10_us));
  k.spawn(std::make_unique<testing::ScriptProgram>(std::move(s)),
          {.name = "sleeper"});
  const Pid pa = k.spawn(worker(0, 300_us), {.name = "a"});
  k.spawn(worker(1, 300_us), {.name = "b"});
  k.run_to_exit();
  EXPECT_GE(k.process(pa).preemptions(), 1u);
  ASSERT_EQ(done_order.size(), 2u);
  // front=false would finish B first (A's remainder runs last).
  EXPECT_EQ(done_order[0], 0);
  EXPECT_EQ(done_order[1], 1);
}

TEST(LinuxSchedTest, PickCandidatesReturnsHighestReadyLevelInFifoOrder) {
  // Obtain real ready processes from a kernel that has not dispatched
  // yet, and drive a standalone policy instance directly.
  Kernel k(machine(1),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  auto prog = [] {
    std::vector<Action> a;
    a.push_back(Action::compute(1_us));
    return std::make_unique<testing::ScriptProgram>(std::move(a));
  };
  const Pid p1 = k.spawn(prog(), {.name = "p1"});
  const Pid p2 = k.spawn(prog(), {.name = "p2"});
  const Pid hi = k.spawn(prog(), {.name = "hi", .priority = 5});

  LinuxLikeScheduler s(LinuxSchedParams{});
  s.init(1);
  s.enqueue(k.process(p1), 0, false);
  s.enqueue(k.process(p2), 0, false);
  auto cand = s.pick_candidates(0);
  ASSERT_EQ(cand.size(), 2u);
  EXPECT_EQ(cand[0], p1);  // FIFO: index 0 is pick_next's choice
  EXPECT_EQ(cand[1], p2);

  // enqueue(front=true) puts a peer at the head of its level...
  s.enqueue(k.process(hi), 0, true);
  cand = s.pick_candidates(0);
  // ...but a higher priority level hides the lower one entirely.
  ASSERT_EQ(cand.size(), 1u);
  EXPECT_EQ(cand[0], hi);
  EXPECT_EQ(s.pick_next(0), hi);
}

TEST(LinuxSchedTest, TakeDequeuesSpecificCandidate) {
  Kernel k(machine(1),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  auto prog = [] {
    std::vector<Action> a;
    a.push_back(Action::compute(1_us));
    return std::make_unique<testing::ScriptProgram>(std::move(a));
  };
  const Pid p1 = k.spawn(prog(), {.name = "p1"});
  const Pid p2 = k.spawn(prog(), {.name = "p2"});

  LinuxLikeScheduler s(LinuxSchedParams{});
  s.init(1);
  s.enqueue(k.process(p1), 0, false);
  s.enqueue(k.process(p2), 0, false);
  // Take the non-head candidate: exactly what the explore shim does
  // when a choice point diverges from the policy.
  EXPECT_TRUE(s.take(p2, 0));
  EXPECT_EQ(s.queue_depth(0), 1u);
  EXPECT_FALSE(s.take(p2, 0));  // already gone
  EXPECT_EQ(s.pick_next(0), p1);
  EXPECT_EQ(s.queue_depth(0), 0u);
}

}  // namespace
}  // namespace tocttou::sched
