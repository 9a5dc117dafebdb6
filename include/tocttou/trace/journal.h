// Structured per-syscall journal.
//
// The Gantt/trace events in trace.h are for humans; analysis code wants
// structured data: exact enter/exit times, the observed stat() results
// (how the attacker's detection loop sees the world), and which inode an
// operation was finally applied to (how we judge attack success, and how
// the window analyzer finds t1/t2/t3). The kernel appends one record per
// completed syscall, when the round records a journal. At the same point
// it feeds the round's WindowTracker (window.h), which finds the victim's
// window without one: explore leaves keep no journal, and any leaf's
// journal can be rebuilt by replaying its schedule token.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/time.h"
#include "tocttou/trace/trace.h"

namespace tocttou::trace {

struct SyscallRecord {
  Pid pid = 0;
  std::string name;       // "stat", "rename", ...
  SimTime enter;          // syscall entry (after any libc trap)
  SimTime exit;           // syscall return
  Errno result = Errno::ok;
  std::string path;       // primary path argument, if any
  std::string path2;      // secondary path: rename/link newpath; for
                          // symlink this is the TARGET string (the
                          // linkpath is `path`)

  // stat/lstat: attributes observed.
  std::optional<std::uint32_t> st_uid;
  std::optional<std::uint32_t> st_gid;
  std::optional<std::uint64_t> st_ino;

  // Mutating calls: the inode the operation was applied to after path
  // resolution (e.g. chown through a symlink reports the target's inode).
  std::optional<std::uint64_t> applied_ino;

  Duration length() const { return exit - enter; }
};

class SyscallJournal {
 public:
  SyscallJournal() = default;
  /// A copy keeps the source's capacity. The copies made are checkpoint
  /// forks (core::RoundRun), which keep appending: an exact-size copy
  /// would reallocate the whole prefix at the fork's first syscall — a
  /// transient that fragments the heap with journal-sized blocks and
  /// raises the peak RSS of a sweep.
  SyscallJournal(const SyscallJournal& o) {
    records_.reserve(o.records_.capacity());
    records_.insert(records_.end(), o.records_.begin(), o.records_.end());
  }
  SyscallJournal& operator=(const SyscallJournal&) = default;
  SyscallJournal(SyscallJournal&&) = default;
  SyscallJournal& operator=(SyscallJournal&&) = default;

  void add(SyscallRecord rec) { records_.push_back(std::move(rec)); }
  const std::vector<SyscallRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }

  /// CSV export (enter_us,exit_us,pid,name,result,path,path2,st_uid,
  /// st_gid,st_ino,applied_ino) for offline analysis/plotting.
  std::string to_csv() const;

  /// All records of `pid` named `name`, in enter-time order. Returns
  /// pointers into records() — valid until the journal is mutated — so
  /// the hot analysis paths never copy heap-string-bearing records.
  std::vector<const SyscallRecord*> for_pid(Pid pid,
                                            std::string_view name) const;

 private:
  std::vector<SyscallRecord> records_;
};

/// Bundle passed around by the kernel: human-readable events plus the
/// structured journal for one simulated round.
///
/// `log_events` can be cleared to record only the (much cheaper) syscall
/// journal — campaign mode uses this to measure L and D over hundreds of
/// rounds without paying for full Gantt-grade event logs.
struct RoundTrace {
  TraceLog log;
  SyscallJournal journal;
  bool log_events = true;
};

}  // namespace tocttou::trace
