// Simulated process (task) state.
//
// All mutation happens inside the Kernel; programs and analysis code see
// read-only accessors.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "tocttou/common/time.h"
#include "tocttou/sim/ids.h"
#include "tocttou/sim/program.h"

namespace tocttou::sim {

class Kernel;

enum class ProcState {
  ready,        // runnable, waiting for a CPU
  running,      // on a CPU
  blocked_sem,  // waiting on a semaphore
  blocked_io,   // waiting on device I/O
  blocked_flag, // waiting on an event flag
  sleeping,     // timer sleep
  exited,
};

const char* to_string(ProcState s);

struct SpawnOptions {
  std::string name = "proc";
  int priority = 0;          // higher = more important
  Uid uid = 0;
  Gid gid = 0;
  std::uint64_t affinity_mask = ~0ull;  // bit i = may run on CPU i
  bool kernel_thread = false;           // excluded from exit bookkeeping
  /// Override the first time slice (default: a fresh full slice).
  std::optional<Duration> initial_slice;
};

class Process {
 public:
  Pid pid() const { return pid_; }
  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  Uid uid() const { return uid_; }
  Gid gid() const { return gid_; }
  ProcState state() const { return state_; }
  bool exited() const { return state_ == ProcState::exited; }
  CpuId cpu() const { return cpu_; }
  CpuId last_cpu() const { return last_cpu_; }
  std::uint64_t affinity_mask() const { return affinity_mask_; }
  bool kernel_thread() const { return kernel_thread_; }
  Duration slice_left() const { return slice_left_; }
  Duration cpu_time() const { return cpu_time_; }
  /// Number of involuntary preemptions suffered so far.
  std::uint64_t preemptions() const { return preemptions_; }

  /// Canonical state digest (DESIGN.md §10): every field the kernel's
  /// clone ctor copies — identity, scheduling state, the in-flight
  /// action, and the owned program/op state machines.
  void hash_state(StateHasher& h) const;

 private:
  friend class Kernel;
  Process() = default;

  Pid pid_ = kNoPid;
  std::string name_;
  int priority_ = 0;
  Uid uid_ = 0;
  Gid gid_ = 0;
  std::uint64_t affinity_mask_ = ~0ull;
  bool kernel_thread_ = false;

  std::unique_ptr<Program> program_;
  ProcState state_ = ProcState::ready;
  CpuId cpu_ = kNoCpu;
  CpuId last_cpu_ = kNoCpu;
  Duration slice_left_ = Duration::zero();
  Duration cpu_time_ = Duration::zero();
  std::uint64_t preemptions_ = 0;

  // --- current activity ---
  // Pending user-mode computation (remaining effective time) + its label.
  Duration compute_left_ = Duration::zero();
  std::string compute_label_;
  // In-flight service op, if any.
  std::unique_ptr<ServiceOp> op_;
  SimTime op_enter_;           // syscall entry time (for the journal)
  bool need_resched_ = false;  // preemption requested at next safe point
  // Number of semaphores held (release-on-exit check). Which ones is
  // each semaphore's owner, so a checkpoint copies no pointer here.
  std::uint32_t sems_held_ = 0;
  // libc pages already mapped into this process (first-touch fault model).
  std::set<int> mapped_libc_pages_;
  // Generation counter to invalidate stale scheduled segment events.
  std::uint64_t seg_gen_ = 0;
  // Syscall result held across an injected completion latency spike.
  Errno pending_result_ = Errno::ok;
  // False from the installation of an op to its first advance, and only
  // in rounds whose fault injector can fail a syscall at entry: the
  // kernel asks the injector at that first advance. Rounds with an
  // injector are unhashable, so the digest leaves it out.
  bool entry_checked_ = true;
  // Segment bookkeeping while running.
  SimTime seg_start_;
  enum class SegKind { none, user_compute, kernel_work, trap, ctxsw,
                       fault_spike };
  SegKind seg_kind_ = SegKind::none;
  Duration seg_len_ = Duration::zero();
  // Blocked-span bookkeeping for the trace and metrics: when the wait
  // began, and the semaphore's inode or the flag it waits on.
  SimTime block_start_;
  std::uint64_t wait_ino_ = 0;
  std::string_view wait_flag_;
  // Wakeup-latency bookkeeping (metrics only; wake_pending_ is set only
  // when a metrics registry is attached).
  SimTime wake_time_;
  bool wake_pending_ = false;
};

}  // namespace tocttou::sim
