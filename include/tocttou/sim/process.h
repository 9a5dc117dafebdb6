// Simulated process (task) state.
//
// All mutation happens inside the Kernel; programs and analysis code see
// read-only accessors. A Process points at nothing (it owns its program
// and op through sim::Owned, and holds its syscall result by value), so a
// checkpoint copies it member by member.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "tocttou/common/path.h"
#include "tocttou/common/time.h"
#include "tocttou/fs/types.h"
#include "tocttou/sim/ids.h"
#include "tocttou/sim/owned.h"
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

/// What a syscall returns, read as ctx.result() in the next() after the
/// call. The kernel resets it when it installs the op, the op writes its
/// fd, StatBuf or link target in its final advance and the kernel the
/// errno, so a failed call leaves fd -1, a default StatBuf and no link.
struct SyscallResult {
  Errno err = Errno::ok;
  int fd = -1;       // open
  fs::StatBuf stat;  // stat, lstat, fstat
  Path link;         // readlink's target
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
  /// The program the process runs; an exited process keeps it, so a
  /// round's judge reads its attackers' and victim's state by pid.
  const Program& program() const { return *program_; }

  /// Canonical state digest (DESIGN.md §10): identity, scheduling state,
  /// the in-flight action, a pending syscall result, and the owned
  /// program/op state machines.
  void hash_state(StateHasher& h) const;

 private:
  friend class Kernel;
  friend struct ProgramContext;
  Process() = default;

  Pid pid_ = kNoPid;
  std::string name_;
  int priority_ = 0;
  Uid uid_ = 0;
  Gid gid_ = 0;
  std::uint64_t affinity_mask_ = ~0ull;
  bool kernel_thread_ = false;

  Owned<Program> program_;
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
  Owned<ServiceOp> op_;
  SimTime op_enter_;           // syscall entry time (for the journal)
  bool need_resched_ = false;  // preemption requested at next safe point
  // Number of semaphores held (release-on-exit check). Which ones is
  // each semaphore's owner, so a checkpoint copies no pointer here.
  std::uint32_t sems_held_ = 0;
  // libc pages already mapped into this process (first-touch fault
  // model): bit n is page n, for page ids in [0, 64).
  std::uint64_t mapped_libc_pages_ = 0;
  // Generation counter to invalidate stale scheduled segment events.
  std::uint64_t seg_gen_ = 0;
  // The in-flight or last syscall's result (its errno written at
  // Step::done), pending from its completion until next() returns.
  SyscallResult result_;
  bool result_pending_ = false;
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
  FlagId wait_flag_ = 0;
  // Wakeup-latency bookkeeping (metrics only; wake_pending_ is set only
  // when a metrics registry is attached).
  SimTime wake_time_;
  bool wake_pending_ = false;
};

inline bool ProgramContext::has_result() const { return self.result_pending_; }

inline const SyscallResult& ProgramContext::result() const {
  TOCTTOU_CHECK(self.result_pending_, "no syscall has just completed");
  return self.result_;
}

}  // namespace tocttou::sim
