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
//
// A record is plain data. Its op name, path and path2 are ids in a string
// table the journal owns, interned in first-append order, so a journal
// rebuilt by replaying a leaf's schedule interns exactly as the original
// did. Appending a record whose strings the journal has already seen
// allocates nothing beyond the record vector's growth. Only the readers
// that print or compare text (to_csv, core::analyze_window, core/pairs,
// the detector's report) turn ids back into strings; the detector and
// the window finder (detect/classify.h) match by id. Ids are meaningful
// within one journal only: code that compares two journals compares
// their resolved text (to_csv).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/time.h"
#include "tocttou/trace/trace.h"

namespace tocttou::trace {

/// Id of a string in one journal's string table. kEmptyStr is the empty
/// string, which no call needs to intern ("no path").
using StrId = std::uint32_t;
inline constexpr StrId kEmptyStr = 0;

struct SyscallRecord {
  Pid pid = 0;
  StrId name = kEmptyStr;   // "stat", "rename", ...
  SimTime enter;            // syscall entry (after any libc trap)
  SimTime exit;             // syscall return
  Errno result = Errno::ok;
  StrId path = kEmptyStr;   // primary path argument, if any
  StrId path2 = kEmptyStr;  // secondary path: rename/link newpath; for
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
static_assert(std::is_trivially_copyable_v<SyscallRecord>);

class SyscallJournal {
 public:
  SyscallJournal() = default;
  /// A copy keeps the source's record capacity. The copies made are
  /// checkpoint forks (core::RoundRun), which keep appending: an
  /// exact-size copy would reallocate the whole prefix at the fork's
  /// first syscall — a transient that fragments the heap with
  /// journal-sized blocks and raises the peak RSS of a sweep.
  SyscallJournal(const SyscallJournal& o)
      : chars_(o.chars_), spans_(o.spans_), slots_(o.slots_) {
    records_.reserve(o.records_.capacity());
    records_.insert(records_.end(), o.records_.begin(), o.records_.end());
  }
  SyscallJournal& operator=(const SyscallJournal&) = default;
  SyscallJournal(SyscallJournal&&) = default;
  SyscallJournal& operator=(SyscallJournal&&) = default;

  /// Appends one completed call, interning its strings, and returns the
  /// record so the op can attach its observations (ServiceOp::
  /// fill_record). The reference is valid until the next append.
  SyscallRecord& append(Pid pid, std::string_view name, SimTime enter,
                        SimTime exit, Errno result,
                        std::string_view path = {},
                        std::string_view path2 = {});
  /// Reserves room for `n` records (appends then reallocate nothing).
  void reserve(std::size_t n) { records_.reserve(n); }

  const std::vector<SyscallRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }

  /// The text of an id of this journal.
  std::string_view text(StrId id) const {
    if (id == kEmptyStr) return {};
    const Span& s = spans_[id - 1];
    return {chars_.data() + s.begin, s.size};
  }
  std::string_view name(const SyscallRecord& r) const { return text(r.name); }
  std::string_view path(const SyscallRecord& r) const { return text(r.path); }
  std::string_view path2(const SyscallRecord& r) const {
    return text(r.path2);
  }
  /// The id of `s`, if a record holds it (kEmptyStr for "").
  std::optional<StrId> find(std::string_view s) const;
  /// One past the largest id: the size of a table indexed by id.
  std::size_t string_count() const { return spans_.size() + 1; }

  /// CSV export (enter_us,exit_us,pid,name,result,path,path2,st_uid,
  /// st_gid,st_ino,applied_ino) for offline analysis/plotting.
  std::string to_csv() const;

  /// All records of `pid` named `name`, in enter-time order. Returns
  /// pointers into records() — valid until the journal is mutated.
  std::vector<const SyscallRecord*> for_pid(Pid pid,
                                            std::string_view name) const;

 private:
  StrId intern(std::string_view s);
  /// Open-addressing probe: the slot holding `s`, or the empty slot
  /// where it belongs.
  std::size_t slot_of(std::string_view s) const;
  void grow_slots();

  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };
  std::vector<SyscallRecord> records_;
  std::string chars_;           // every interned string, end to end
  std::vector<Span> spans_;     // id i is chars_[spans_[i - 1]]
  std::vector<StrId> slots_;    // hash index; kEmptyStr = free slot
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
