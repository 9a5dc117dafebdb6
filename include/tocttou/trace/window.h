// The victim's vulnerability window, found online.
//
// The paper's window (§6.1) runs from the exit of the victim's check
// call to the entry of its use call; Equation 1 (p = W/q) consumes its
// length. A WindowTracker is fed the victim's completed syscalls one by
// one, in the order the kernel completes them, and keeps the TIGHTEST
// <check, use> pair (vi opens the file at startup and again to save it;
// its window starts at the second): each successful check on the
// watched path pairs with the first use on that path entering at or
// after the check's exit, and the pair with the smallest gap wins (the
// earliest such check on a tie). It is the only code that finds the
// window: the kernel feeds a live tracker in every round
// (core::RoundResult carries it), and core::analyze_window passes a
// journal's records through one.
//
// The tracker keeps no history — the latest check no use has followed
// yet, the latest use, and the best pair so far — so it is small and
// plain, and a checkpoint fork copies it as it is. That is exact
// because one process's calls never overlap: each enters at or after
// the previous one's exit, so the next use is the first use of every
// check still waiting, and the latest of those checks has the smallest
// gap.
#pragma once

#include <optional>
#include <string_view>

#include "tocttou/common/error.h"
#include "tocttou/common/time.h"
#include "tocttou/trace/journal.h"

namespace tocttou::trace {

/// Which of the victim's calls open and close its window. The strings
/// are views, not copies: every tracker built from a spec keeps them, so
/// they must outlive it (the harness and the tests pass literals).
struct WindowSpec {
  /// The check-side call. vi: "open"; gedit: "rename".
  std::string_view check_call;
  /// Whether the watched path is the check's path2 (rename's new name)
  /// rather than its primary path.
  bool check_on_path2 = false;
  /// The use-side call, whose entry is t3. vi: "chown"; gedit: "chmod".
  std::string_view use_call;
  /// The watched path (vi's wfname, gedit's real_filename).
  std::string_view path;

  static WindowSpec vi(std::string_view wfname);
  static WindowSpec gedit(std::string_view real_filename);
};

class WindowTracker {
 public:
  /// Tracks no process: found() stays false.
  WindowTracker() = default;
  WindowTracker(Pid victim, const WindowSpec& spec)
      : victim_(victim), spec_(spec) {}

  /// Whether `pid`'s calls are the ones add() reads (callers test this
  /// first, before they gather a call's arguments).
  bool tracks(Pid pid) const { return pid == victim_; }

  /// Feeds one completed call of the tracked process. Calls must arrive
  /// in the order they completed.
  void add(std::string_view name, Errno result, std::string_view path,
           std::string_view path2, SimTime enter, SimTime exit);
  /// Feeds a record of `journal`; records of other processes are
  /// skipped.
  void add(const SyscallJournal& journal, const SyscallRecord& r) {
    if (tracks(r.pid)) {
      add(journal.name(r), r.result, journal.path(r), journal.path2(r),
          r.enter, r.exit);
    }
  }

  /// Whether a check was followed by a use.
  bool found() const { return found_; }
  /// The window's check exit (window_open) and use entry (t3); meaningful
  /// only when found().
  SimTime open() const { return open_; }
  SimTime use() const { return use_; }
  Duration length() const { return use_ - open_; }

 private:
  void consider(SimTime open, SimTime use);

  Pid victim_ = 0;
  WindowSpec spec_;
  std::optional<SimTime> check_exit_;  // latest check no use has followed
  std::optional<SimTime> last_use_;    // entry of the latest use
  bool found_ = false;
  SimTime open_;
  SimTime use_;
};

}  // namespace tocttou::trace
