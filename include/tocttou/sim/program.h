// Programs: the user-mode side of a simulated process.
//
// A Program is a state machine that yields Actions. The kernel executes
// one action at a time and calls next() again when it completes; syscall
// results flow back through program-owned output slots that the service
// ops write into (the program outlives every op it issues).
#pragma once

#include <memory>
#include <string>

#include "tocttou/common/error.h"
#include "tocttou/common/rng.h"
#include "tocttou/common/time.h"
#include "tocttou/sim/ids.h"
#include "tocttou/sim/semaphore.h"
#include "tocttou/sim/service.h"

namespace tocttou::sim {

class CloneMap;
class Kernel;
class Process;

/// What a program asks the kernel to do next.
struct Action {
  enum class Kind {
    compute,    // run user-mode computation for `dur`
    service,    // execute the syscall `op`
    sleep_for,  // leave the run queue for `dur` (timer sleep)
    wait_flag,  // block until `flag` is set
    set_flag,   // set `flag`, waking all waiters (instantaneous)
    mark,       // emit an instantaneous trace marker `label`
    exit_proc,  // terminate the process
  };

  Kind kind = Kind::exit_proc;
  Duration dur = Duration::zero();
  std::string label;  // compute/mark trace label
  std::unique_ptr<ServiceOp> op;
  EventFlag* flag = nullptr;

  static Action compute(Duration d, std::string label = "comp") {
    Action a;
    a.kind = Kind::compute;
    a.dur = d;
    a.label = std::move(label);
    return a;
  }
  static Action service(std::unique_ptr<ServiceOp> op) {
    Action a;
    a.kind = Kind::service;
    a.op = std::move(op);
    return a;
  }
  static Action sleep_for(Duration d) {
    Action a;
    a.kind = Kind::sleep_for;
    a.dur = d;
    return a;
  }
  static Action wait_flag(EventFlag* f) {
    Action a;
    a.kind = Kind::wait_flag;
    a.flag = f;
    return a;
  }
  static Action set_flag(EventFlag* f) {
    Action a;
    a.kind = Kind::set_flag;
    a.flag = f;
    return a;
  }
  static Action mark(std::string label) {
    Action a;
    a.kind = Kind::mark;
    a.label = std::move(label);
    return a;
  }
  static Action exit_proc() { return Action{}; }
};

/// Context available to a program when deciding its next action.
struct ProgramContext {
  Kernel& kernel;
  Process& self;
  Rng& rng;
  SimTime now;
};

class Program {
 public:
  virtual ~Program() = default;

  /// Returns the next action. Called when the previous action completed
  /// (for services: after the syscall returned and wrote its outputs).
  virtual Action next(ProgramContext& ctx) = 0;

  /// Checkpoint support: deep-copies the program's state machine for a
  /// cloned round, remapping any pointers into simulation state (the
  /// Vfs, shared attack state) through `m`, and registers the copy's
  /// range so that in-flight ops' output slots resolve. Programs derive
  /// it, with hash_state, from their field list (sim::Listed,
  /// sim/fields.h). The default fails hard rather than being pure so
  /// programs that never run under the checkpointing explorer (test
  /// doubles, one-off experiment programs) need not implement it.
  virtual std::unique_ptr<Program> clone(CloneMap& m) const {
    (void)m;
    TOCTTOU_CHECK(false, "program does not support checkpoint clone");
    return nullptr;
  }

  /// Canonical state digest contribution (DESIGN.md §10): every field of
  /// the program's state machine that can influence its future actions,
  /// including the values in its output slots. Programs that do not
  /// implement it are unhashable — the explorer never merges their
  /// rounds, which is safe (never merging is always correct).
  virtual void hash_state(StateHasher& h) const { h.mark_unhashable(); }
};

}  // namespace tocttou::sim
