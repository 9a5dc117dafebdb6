// Per-round event analysis: extracting the paper's t1, t2, t3, L and D
// from a syscall journal (Sections 3.4, 5, 6.1).
//
// Estimator conventions, matching the paper:
//  * t3 is the start of the victim's first "use-side" call after the
//    window opens (chmod for gedit, chown for vi).
//  * t1 is "the earliest observed start time of stat which indicates a
//    vulnerability window" (Section 6.1) — the enter time of the
//    attacker's first stat that returned uid==0 && gid==0 for the
//    watched path. The paper notes this is conservative: an earlier true
//    t1 would give a larger L.
//  * D has two conventions, both used by the paper:
//      - loop_iteration (vi, Table 1): mean period between consecutive
//        detection-loop stat entries;
//      - stat_to_unlink (gedit, Table 2): the interval between the start
//        of the detecting stat and the start of unlink — includes the
//        post-detection computation and any libc trap.
//  * t2 = t3 - D, L = t2 - t1.
#pragma once

#include <optional>

#include "tocttou/common/time.h"
#include "tocttou/trace/journal.h"
#include "tocttou/trace/window.h"

namespace tocttou::core {

enum class DConvention { loop_iteration, stat_to_unlink };

/// Which calls bound the victim's window (trace/window.h: the strings
/// are views that must outlive the trackers built from the spec).
using WindowSpec = trace::WindowSpec;

struct WindowMeasurement {
  bool window_found = false;        // victim executed check and use
  SimTime window_open;              // check call exit (the commit side)
  SimTime t3;                       // use call enter
  Duration victim_window() const { return t3 - window_open; }

  bool detected = false;            // attacker observed the window
  SimTime t1;                       // detecting stat's enter time
  std::optional<Duration> d;        // per the chosen convention
  std::optional<Duration> laxity;   // L = (t3 - D) - t1

  /// Formula (1) prediction from this round's L and D, if measurable.
  std::optional<double> predicted_rate() const;
};

/// Analyzes one round. `victim`/`attacker` are the journal pids. The
/// victim side is the journal's victim records passed through a
/// trace::WindowTracker, the one place the window is found.
WindowMeasurement analyze_window(const trace::SyscallJournal& journal,
                                 trace::Pid victim, trace::Pid attacker,
                                 const WindowSpec& spec,
                                 DConvention convention);

}  // namespace tocttou::core
