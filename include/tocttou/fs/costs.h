// Calibrated syscall cost model.
//
// Nominal CPU costs of each file-system operation, per testbed. The two
// presets are calibrated so the simulated L and D values land where the
// paper measured them (see DESIGN.md §3 "Calibration constants"):
//
//  * xeon():      dual Intel Xeon 1.7 GHz (the paper's SMP; the same
//                 per-CPU costs are used for the uniprocessor baseline)
//  * pentium_d(): Pentium D 3.2 GHz dual-core w/ HT (the multi-core) —
//                 roughly 3x faster per operation; the paper reports
//                 stat ~4us here vs. the Xeon's low tens.
#pragma once

#include "tocttou/common/time.h"

namespace tocttou::fs {

struct SyscallCosts {
  // Path walk.
  Duration path_component = Duration::micros(2);  // per dcache-hit lookup

  // Per-call bodies (excluding path walk).
  Duration stat_base = Duration::micros(6);
  Duration stat_locked_tail = Duration::micros(2);  // slow path after sem
  Duration access_base = Duration::micros(5);
  Duration open_base = Duration::micros(10);
  Duration create_extra = Duration::micros(10);  // inode alloc + dir insert
  Duration close_base = Duration::micros(8);
  Duration write_base = Duration::micros(9);
  Duration write_per_kb = Duration::micros(16);
  Duration read_base = Duration::micros(7);
  Duration read_per_kb = Duration::micros(4);
  Duration rename_work = Duration::micros(18);  // under the dir semaphore
  Duration rename_tail = Duration::micros(4);   // after release, pre-return
  Duration unlink_detach = Duration::micros(28);  // under dir+inode sems
  Duration truncate_per_kb = Duration::micros_f(1.2);  // inode sem only
  Duration symlink_base = Duration::micros(11);
  Duration link_base = Duration::micros(10);
  Duration chmod_base = Duration::micros(7);
  Duration chown_base = Duration::micros(7);
  Duration mkdir_base = Duration::micros(14);
  Duration readlink_base = Duration::micros(4);

  // Page-cache writeback throttling: probability per write() call that
  // the caller is put to sleep on device I/O, and for how long. This is
  // one of the paper's uniprocessor suspension sources ("I/O operation"
  // in Section 4.1).
  double writeback_stall_prob = 2.0e-4;
  Duration writeback_stall_mean = Duration::millis(2);
  Duration writeback_stall_stdev = Duration::millis(1);

  static SyscallCosts xeon();
  static SyscallCosts pentium_d();

  bool operator==(const SyscallCosts&) const = default;
};

}  // namespace tocttou::fs
