// Kernel synchronization-event stream for happens-before detection.
//
// The simulated kernel is single-threaded and deterministic, so ONE
// append-ordered log of its synchronization actions is a total order
// consistent with causality: every edge the kernel actually enforces
// between processes (spawn, exit, inode-semaphore ownership transfer,
// event-flag set/wake handoffs) appears here in the order it happened,
// interleaved with syscall enter/exit markers so the detector can
// position each journal record inside that order. The log is the
// detector's ONLY view of ordering — it never consults simulated
// timestamps, which overlap freely across CPUs. Its events are plain
// 16-byte records: semaphores are named by inode number, flags by an
// index into the log's interned names, and each syscall exit by the
// index of its journal record.
//
// Emission contract (DESIGN.md §9): the kernel writes through a single
// `sync_` pointer guarded by one null check per site, mirroring the
// trace/faults/metrics sinks — detection off costs one predictable
// branch per event and allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "tocttou/trace/trace.h"

namespace tocttou::detect {

/// One kernel ordering action. `sc_enter`/`sc_exit` bracket the service
/// of one syscall, and the `sc_exit` names the SyscallRecord the kernel
/// journaled for it, so the detector attaches the call's clocks to its
/// record by index.
enum class SyncKind : std::uint8_t {
  proc_start,   // process admitted to the run queue
  proc_exit,    // process finished its program
  sem_acquire,  // inode semaphore granted (uncontended or direct handoff)
  sem_release,  // inode semaphore released by its owner
  flag_set,     // event flag raised (pipe-style state handoff, publish)
  flag_wake,    // a waiter observed the flag set (blocked or fast path)
  sc_enter,     // syscall service begins (op_enter_ stamped)
  sc_exit,      // syscall service completes (journal record appended)
};

const char* to_string(SyncKind k);

/// A 16-byte plain record. `arg` holds, by kind: proc_start the uid (the
/// detector treats uid != 0 as attacker-writable); sem_* the inode
/// number; flag_* the flag's index in SyncLog::flags(); sc_exit the
/// index of the call's journal record; 0 otherwise.
struct SyncEvent {
  SyncKind kind{};
  trace::Pid pid = 0;
  std::uint64_t arg = 0;
};
static_assert(sizeof(SyncEvent) == 16);
static_assert(std::is_trivially_copyable_v<SyncEvent>);

/// Append-only sink the kernel emits into when detection is on. Owned
/// by core::RoundResult so checkpoint forks deep-copy it with the rest
/// of the round state.
class SyncLog {
 public:
  void proc_start(trace::Pid pid, std::uint32_t uid) {
    events_.push_back({SyncKind::proc_start, pid, uid});
  }
  void proc_exit(trace::Pid pid) {
    events_.push_back({SyncKind::proc_exit, pid, 0});
  }
  void sem_acquire(trace::Pid pid, std::uint64_t ino) {
    events_.push_back({SyncKind::sem_acquire, pid, ino});
  }
  void sem_release(trace::Pid pid, std::uint64_t ino) {
    events_.push_back({SyncKind::sem_release, pid, ino});
  }
  /// `flag` must outlive the log (flags are named by string literals).
  void flag_set(trace::Pid pid, std::string_view flag) {
    events_.push_back({SyncKind::flag_set, pid, intern(flag)});
  }
  void flag_wake(trace::Pid pid, std::string_view flag) {
    events_.push_back({SyncKind::flag_wake, pid, intern(flag)});
  }

  void sc_enter(trace::Pid pid) {
    events_.push_back({SyncKind::sc_enter, pid, 0});
  }
  /// `record` indexes the call's SyscallRecord in the round's journal.
  void sc_exit(trace::Pid pid, std::size_t record) {
    events_.push_back({SyncKind::sc_exit, pid, record});
  }

  /// Reserves room for `n` events (appends then reallocate nothing).
  void reserve(std::size_t n) { events_.reserve(n); }

  const std::vector<SyncEvent>& events() const { return events_; }
  /// The flags the log has seen, in first-seen order: a flag event's
  /// arg indexes this.
  const std::vector<std::string_view>& flags() const { return flags_; }
  bool empty() const { return events_.empty(); }

 private:
  std::uint64_t intern(std::string_view flag) {
    for (std::size_t i = 0; i < flags_.size(); ++i) {
      if (flags_[i] == flag) return i;
    }
    flags_.push_back(flag);
    return flags_.size() - 1;
  }

  std::vector<SyncEvent> events_;
  std::vector<std::string_view> flags_;
};

}  // namespace tocttou::detect
