// Differential and scale tests for the scheduler's run queues.
//
// The bitmap queue exists so a run queue holding a thousand tenant
// processes costs the same per event as one holding three. The
// differential test drives it and a plain reference queue
// (reference_run_queue.h) through one randomized operation trace and
// asserts every observable — picked pids, steal victims, candidate
// lists, per-CPU depths — agrees, plus the conservation invariant (sum
// of queue depths == processes queued) after every single operation.
// The scale tests then prove the policy stays exactly work-conserving
// and balanced at O(10^3) processes.
#include "tocttou/sched/linux_sched.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "../testing/programs.h"
#include "reference_run_queue.h"
#include "tocttou/common/rng.h"
#include "tocttou/common/strings.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::sched {
namespace {

using namespace tocttou::literals;
using sim::Action;
using sim::Kernel;
using sim::MachineSpec;
using sim::Pid;

MachineSpec machine(int n_cpus) {
  MachineSpec m;
  m.n_cpus = n_cpus;
  m.context_switch_cost = Duration::zero();
  m.wakeup_latency = Duration::zero();
  m.noise = sim::NoiseModel::none();
  m.background.enabled = false;
  return m;
}

std::unique_ptr<testing::ScriptProgram> tiny_prog() {
  std::vector<Action> a;
  a.push_back(Action::compute(1_us));
  return std::make_unique<testing::ScriptProgram>(std::move(a));
}

TEST(RunQueueDifferentialTest, RandomizedTraceAgreesAcrossImpls) {
  constexpr int kCpus = 4;
  constexpr int kProcs = 300;
  constexpr int kOps = 6000;

  // Real processes (Process has no public ctor) with a spread of
  // priorities and some CPU pinning, obtained from a kernel that never
  // runs; the policy instances under test are standalone.
  Kernel k(machine(kCpus),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  Rng rng(0xd1ffe2ab5eedull);
  std::vector<Pid> pids;
  std::map<Pid, std::uint64_t> mask_of;
  for (int i = 0; i < kProcs; ++i) {
    sim::SpawnOptions opt;
    opt.name = strfmt("p%d", i);
    opt.priority = static_cast<int>(rng.uniform_int(-2, 5));
    std::uint64_t mask = ~0ull;
    if (rng.uniform_int(0, 3) == 0) {
      mask = 1ull << rng.uniform_int(0, kCpus - 1);
    }
    opt.affinity_mask = mask;
    const Pid p = k.spawn(tiny_prog(), opt);
    pids.push_back(p);
    mask_of[p] = mask;
  }

  LinuxLikeScheduler bitmap(LinuxSchedParams{});
  bitmap.init(kCpus);
  ReferenceRunQueue reference(kCpus);

  // Driver-side model: which pids are queued, and where. Enqueues
  // respect each process's affinity mask, exactly like the kernel.
  std::map<Pid, sim::CpuId> queued;
  std::vector<Pid> unqueued = pids;
  for (int op = 0; op < kOps; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind <= 3 && !unqueued.empty()) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(unqueued.size()) - 1));
      const Pid p = unqueued[idx];
      unqueued[idx] = unqueued.back();
      unqueued.pop_back();
      sim::CpuId cpu;
      do {
        cpu = static_cast<sim::CpuId>(rng.uniform_int(0, kCpus - 1));
      } while (!(mask_of[p] >> cpu & 1));
      const bool front = rng.uniform_int(0, 1) == 1;
      bitmap.enqueue(k.process(p), cpu, front);
      reference.enqueue(k.process(p), cpu, front);
      queued[p] = cpu;
    } else if (kind == 4 || kind == 5) {
      const auto cpu = static_cast<sim::CpuId>(rng.uniform_int(0, kCpus - 1));
      const Pid a = bitmap.pick_next(cpu);
      const Pid b = reference.pick_next(cpu);
      ASSERT_EQ(a, b) << "op " << op;
      if (a != sim::kNoPid) {
        queued.erase(a);
        unqueued.push_back(a);
      }
    } else if (kind == 6) {
      const auto thief = static_cast<sim::CpuId>(rng.uniform_int(0, kCpus - 1));
      const Pid a = bitmap.steal(thief);
      const Pid b = reference.steal(thief);
      ASSERT_EQ(a, b) << "op " << op;
      if (a != sim::kNoPid) {
        queued.erase(a);
        unqueued.push_back(a);
      }
    } else if (kind == 7 && !queued.empty()) {
      auto it = queued.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(queued.size()) - 1));
      const Pid p = it->first;
      ASSERT_TRUE(bitmap.take(p, it->second)) << "op " << op;
      ASSERT_TRUE(reference.take(p, it->second)) << "op " << op;
      queued.erase(it);
      unqueued.push_back(p);
    } else if (kind == 8 && !queued.empty()) {
      auto it = queued.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(queued.size()) - 1));
      const Pid p = it->first;
      const sim::CpuId cpu = it->second;
      ASSERT_TRUE(bitmap.take(p, cpu)) << "op " << op;
      ASSERT_TRUE(reference.take(p, cpu)) << "op " << op;
      // A second take of the same process must fail on both.
      ASSERT_FALSE(bitmap.take(p, cpu)) << "op " << op;
      ASSERT_FALSE(reference.take(p, cpu)) << "op " << op;
      queued.erase(it);
      unqueued.push_back(p);
    } else {
      const auto cpu = static_cast<sim::CpuId>(rng.uniform_int(0, kCpus - 1));
      const auto ca = bitmap.pick_candidates(cpu);
      const auto cb = reference.pick_candidates(cpu);
      ASSERT_EQ(ca.size(), cb.size()) << "op " << op;
      for (std::size_t i = 0; i < ca.size(); ++i) {
        ASSERT_EQ(ca[i], cb[i]) << "op " << op << " cand " << i;
      }
    }
    // Depth agreement and conservation after EVERY operation: nothing
    // the trace did may create or leak a queued process.
    std::size_t total = 0;
    for (int c = 0; c < kCpus; ++c) {
      ASSERT_EQ(bitmap.queue_depth(c), reference.queue_depth(c))
          << "op " << op << " cpu " << c;
      total += bitmap.queue_depth(c);
    }
    ASSERT_EQ(total, queued.size()) << "op " << op;
  }
}

TEST(RunQueueScaleTest, WorkConservingBalanceAtHighProcessCount) {
  // 512 equal-priority 100us computers on 4 CPUs: the machine must
  // finish in exactly 512*100/4 us with the load split exactly evenly —
  // any O(P) misstep in placement or the bitmap queue shows up as skew.
  constexpr int kCpus = 4;
  constexpr int kProcs = 512;
  Kernel k(machine(kCpus),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  std::vector<Pid> pids;
  for (int i = 0; i < kProcs; ++i) {
    std::vector<Action> a;
    a.push_back(Action::compute(100_us));
    pids.push_back(
        k.spawn(std::make_unique<testing::ScriptProgram>(std::move(a)),
                {.name = strfmt("w%d", i)}));
  }
  k.run_to_exit();
  EXPECT_EQ(k.now(), SimTime::origin() + Duration::micros(kProcs * 100 / kCpus));
  std::vector<int> per_cpu(kCpus, 0);
  for (const Pid p : pids) ++per_cpu[k.process(p).last_cpu()];
  for (int c = 0; c < kCpus; ++c) {
    EXPECT_EQ(per_cpu[c], kProcs / kCpus) << "cpu " << c;
  }
}

TEST(RunQueueScaleTest, StealDrainsBacklogBehindPinnedSpinner) {
  // One spinner pinned to CPU 0 with ~1/4 of 300 short tasks queued
  // behind it: the idle CPUs must steal that backlog, so the round ends
  // at the spinner's 2000us, not 2000us plus a starved tail — and none
  // of the short tasks may have run on the spinner's CPU.
  constexpr int kCpus = 4;
  constexpr int kShort = 300;
  Kernel k(machine(kCpus),
           std::make_unique<LinuxLikeScheduler>(LinuxSchedParams{}), 1);
  std::vector<Action> spin;
  spin.push_back(Action::compute(2000_us));
  k.spawn(std::make_unique<testing::ScriptProgram>(std::move(spin)),
          {.name = "spinner", .affinity_mask = 1});
  std::vector<Pid> shorts;
  for (int i = 0; i < kShort; ++i) {
    std::vector<Action> a;
    a.push_back(Action::compute(10_us));
    shorts.push_back(
        k.spawn(std::make_unique<testing::ScriptProgram>(std::move(a)),
                {.name = strfmt("s%d", i)}));
  }
  k.run_to_exit();
  EXPECT_EQ(k.now(), SimTime::origin() + 2000_us);
  for (const Pid p : shorts) {
    EXPECT_NE(k.process(p).last_cpu(), 0) << "task ran behind the spinner";
  }
}

}  // namespace
}  // namespace tocttou::sched
