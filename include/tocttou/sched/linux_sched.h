// Linux-2.6-flavored scheduler policy (O(1)-style per-CPU priority
// queues) implementing sim::Scheduler.
//
// Policy summary, matching the behaviour the paper's experiments rely on:
//  * Per-CPU run queues; a runnable task is placed on an idle allowed CPU
//    if one exists (this is what lets the attacker "run on a dedicated
//    processor" on the SMP/multi-core), otherwise on its last CPU,
//    otherwise on the least-loaded allowed CPU. No migration after that.
//  * Within a CPU: strict priority, round-robin FIFO within a priority.
//  * Wakeup preemption: a woken task preempts a strictly-lower-priority
//    running task (kernel threads preempt user tasks; equal-priority
//    tasks wait for the time-slice boundary).
//  * Time slices: fixed quantum; on expiry the task yields only if
//    someone of equal or higher priority is queued on that CPU.
//
// Run queues: a 512-level priority bitmap per CPU with an intrusive
// pid-linked FIFO per level. enqueue/pick/take/remove are O(1) (pick is
// O(words) over 8 bitmap words), so a run queue holding thousands of
// tenant processes costs the same per event as one holding three. Links
// are stored as Pids, which are stable across checkpoint clones — only
// the cached Process* needs remapping. tests/sched/ checks the queue
// against a plain reference queue on randomized operation traces.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tocttou/common/time.h"
#include "tocttou/sim/process.h"
#include "tocttou/sim/scheduler.h"

namespace tocttou::sched {

struct LinuxSchedParams {
  Duration timeslice = Duration::millis(100);
  /// If true, a woken task also preempts an equal-priority running task
  /// (approximates the O(1) scheduler's interactivity bonus for tasks
  /// that just slept on I/O). The paper's uniprocessor attacks depend on
  /// the victim regaining the CPU promptly after an I/O stall, and the
  /// attacker NOT preempting the victim merely by being runnable.
  bool wake_preempts_equal_priority = false;
};

class LinuxLikeScheduler final : public sim::Scheduler {
 public:
  explicit LinuxLikeScheduler(LinuxSchedParams params = {});

  void init(int n_cpus) override;
  sim::CpuId place(const sim::Process& p,
                   const std::vector<sim::CpuId>& idle_cpus,
                   const std::vector<sim::CpuId>& allowed_cpus) override;
  void enqueue(sim::Process& p, sim::CpuId cpu, bool front) override;
  sim::Process* pick_next(sim::CpuId cpu) override;
  sim::Process* steal(sim::CpuId thief) override;
  void remove(const sim::Process& p) override;
  bool should_preempt(const sim::Process& woken,
                      const sim::Process& running) const override;
  bool should_yield_on_expiry(const sim::Process& running,
                              sim::CpuId cpu) const override;
  Duration fresh_slice(const sim::Process& p) const override;
  std::size_t queue_depth(sim::CpuId cpu) const override;

  /// The processes pick_next would choose among: the ready tasks of the
  /// highest non-empty priority level on `cpu`, in FIFO order (index 0 is
  /// what pick_next itself would return). Used by the explore subsystem
  /// to branch the run-queue order at a genuine choice point.
  std::vector<sim::Process*> pick_candidates(sim::CpuId cpu) const;

  /// Dequeues a specific process previously returned by pick_candidates.
  /// Returns false if `p` is not queued on `cpu` (the queue is unchanged).
  bool take(sim::Process& p, sim::CpuId cpu);

  std::unique_ptr<sim::Scheduler> clone(sim::CloneMap& m) const override;

  void hash_state(StateHasher& h) const override;

  /// Rebind copy for checkpoint clones: copies the queues, remapping each
  /// queued Process* through `m`. Public so wrappers that embed this
  /// policy by value (ExploringScheduler) can clone their member.
  LinuxLikeScheduler(const LinuxLikeScheduler& o, sim::CloneMap& m);

 private:
  // Priorities are mapped to levels [0, kLevels) with level = prio +
  // kPrioBias; level 0 is the LOWEST priority. The per-CPU bitmap has a
  // set bit for every level whose FIFO is non-empty.
  static constexpr int kPrioBias = 256;
  static constexpr int kLevels = 512;
  static constexpr int kWords = kLevels / 64;

  /// Per-process queue node, indexed by pid-1. A process is on at most
  /// one run queue (the kernel dequeues before any state change), so the
  /// FIFO links can live in the node. Links are Pids — clone-stable —
  /// and `proc` caches the Process* while queued (remapped on clone).
  struct Node {
    sim::Process* proc = nullptr;
    sim::Pid prev = sim::kNoPid;
    sim::Pid next = sim::kNoPid;
    sim::CpuId cpu = sim::kNoCpu;  // kNoCpu = not queued
    int level = 0;
  };

  struct BitmapQueue {
    std::array<std::uint64_t, kWords> words{};
    std::array<sim::Pid, kLevels> head{};
    std::array<sim::Pid, kLevels> tail{};
    std::size_t size = 0;
  };

  BitmapQueue& bq(sim::CpuId cpu);
  const BitmapQueue& bq(sim::CpuId cpu) const;
  Node& node(sim::Pid pid);
  static int level_of(const sim::Process& p);
  void bq_link(BitmapQueue& q, sim::Process& p, bool front);
  void bq_unlink(BitmapQueue& q, Node& n);
  /// Highest set level with a non-empty FIFO, or -1.
  static int highest_level(const BitmapQueue& q);

  LinuxSchedParams params_;
  std::vector<BitmapQueue> bqueues_;
  std::vector<Node> nodes_;  // index = pid - 1
};

}  // namespace tocttou::sched
