#include "tocttou/trace/window.h"

namespace tocttou::trace {

WindowSpec WindowSpec::vi(std::string_view wfname) {
  return WindowSpec{"open", false, "chown", wfname};
}

WindowSpec WindowSpec::gedit(std::string_view real_filename) {
  // rename(temp -> real): the real name is path2.
  return WindowSpec{"rename", true, "chmod", real_filename};
}

void WindowTracker::add(std::string_view name, Errno result,
                        std::string_view path, std::string_view path2,
                        SimTime enter, SimTime exit) {
  if (name == spec_.use_call && path == spec_.path) {
    // The first use of the waiting check. Earlier checks it would also
    // close have gaps at least as wide, so only the latest one waits.
    if (check_exit_) consider(*check_exit_, enter);
    check_exit_.reset();
    last_use_ = enter;
  }
  if (name == spec_.check_call && result == Errno::ok &&
      (spec_.check_on_path2 ? path2 : path) == spec_.path) {
    // A use before this check can still close it, if every call in
    // between took no time (a call failed at entry).
    if (last_use_ && *last_use_ >= exit) {
      consider(exit, *last_use_);
    } else {
      check_exit_ = exit;
    }
  }
}

void WindowTracker::consider(SimTime open, SimTime use) {
  if (found_ && use - open >= length()) return;
  found_ = true;
  open_ = open;
  use_ = use;
}

}  // namespace tocttou::trace
