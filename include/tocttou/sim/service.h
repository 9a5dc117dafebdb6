// Service operations: kernel-side state machines for syscalls.
//
// A `ServiceOp` is the simulated analogue of a syscall implementation.
// The process's program constructs one (fs/ops.h has a factory for every
// file-system call) and yields it as an Action; the kernel then
// repeatedly calls advance(), honoring each returned Step (in a round
// that injects syscall errors, the kernel may instead end the call at
// its first advance, before the op has run):
//
//   work(d)        consume d of CPU time in kernel mode (non-preemptible;
//                  the time is still charged against the time slice)
//   acquire(sem)   take a semaphore, blocking in FIFO order if held
//   release(sem)   release a semaphore (must be held by this process)
//   block_io(d)    sleep on simulated device I/O for d (CPU is released)
//   done(errno)    the syscall returns
//
// Between steps the op may mutate VFS state directly — mutations are
// instantaneous at the current virtual time, which is exactly the
// linearization-point semantics the paper's analysis assumes (a rename is
// visible the moment it happens inside the semaphore-protected section).
//
// A call returns its result by value: the op writes its fd, StatBuf or
// link target into its process's result record (SyscallResult) in its
// final advance, and the kernel the errno. An op reaches the round's Vfs
// through its context, so it points at nothing.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "tocttou/common/error.h"
#include "tocttou/common/rng.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/common/time.h"
#include "tocttou/sim/ids.h"
#include "tocttou/sim/semaphore.h"

namespace tocttou::fs {
class Vfs;
}

namespace tocttou::trace {
struct SyscallRecord;
}

namespace tocttou::sim {

class Kernel;
class Process;
struct SyscallResult;

struct Step {
  enum class Kind { work, acquire, release, block_io, done };
  Kind kind = Kind::done;
  Duration dur = Duration::zero();
  Semaphore* sem = nullptr;
  Errno result = Errno::ok;

  static Step work(Duration d) { return {Kind::work, d, nullptr, Errno::ok}; }
  static Step acquire(Semaphore* s) {
    return {Kind::acquire, Duration::zero(), s, Errno::ok};
  }
  static Step release(Semaphore* s) {
    return {Kind::release, Duration::zero(), s, Errno::ok};
  }
  static Step block_io(Duration d) {
    return {Kind::block_io, d, nullptr, Errno::ok};
  }
  static Step done(Errno e = Errno::ok) {
    return {Kind::done, Duration::zero(), nullptr, e};
  }
};

/// Execution context handed to ServiceOp::advance. Ops reach the
/// round's metrics registry through `kernel` (Kernel::metrics()) and its
/// file system through vfs().
struct ServiceContext {
  Kernel& kernel;
  Process& proc;
  Rng& rng;
  SimTime now;
  fs::Vfs* file_system;  // Kernel::set_vfs; null in kernels with no Vfs
  /// The call's result record, which the op fills in its final advance.
  SyscallResult& result;

  fs::Vfs& vfs() const {
    if (file_system == nullptr) [[unlikely]] no_vfs();
    return *file_system;
  }
  [[noreturn]] static void no_vfs();
};

class ServiceOp {
 public:
  virtual ~ServiceOp() = default;

  /// Trace label, e.g. "stat", "unlink".
  virtual std::string_view name() const = 0;

  /// The path the call resolves first, which a fault plan's path-prefix
  /// filter matches; "" for calls that take no path (fd-based calls).
  virtual std::string_view path() const { return {}; }

  /// The call's second name, "" for calls with one: rename's and link's
  /// new path, symlink's target string.
  virtual std::string_view path2() const { return {}; }

  /// Advances the state machine; called once at syscall entry and again
  /// after each non-done step completes.
  virtual Step advance(ServiceContext& ctx) = 0;

  /// Identifier of the libc page holding this call's user-space wrapper.
  /// The kernel injects a page-fault trap the first time a process issues
  /// a call from a page it has not touched yet — the effect that dooms
  /// attack program v1 on the multi-core (Section 6.2.1). Return
  /// kNoLibcPage to opt out.
  virtual int libc_page() const { return kNoLibcPage; }

  /// Called once when the op completes so the op can attach structured
  /// results (observed uid/gid and inode, the inode it applied to) to
  /// the trace journal; the kernel's append fills the name, times and
  /// paths.
  virtual void fill_record(trace::SyscallRecord& rec) const { (void)rec; }

  /// Checkpoint support: a copy of the in-flight syscall state machine
  /// for a forked round. Ops derive it, with hash_state, from their
  /// field list (sim::Listed, sim/fields.h). Fails hard by default (see
  /// Program::clone).
  virtual std::unique_ptr<ServiceOp> clone() const {
    TOCTTOU_CHECK(false, "service op does not support checkpoint clone");
    return nullptr;
  }

  /// Canonical state digest contribution (DESIGN.md §10): the in-flight
  /// syscall's phase and operands. Unhashable by default (see
  /// Program::hash_state).
  virtual void hash_state(StateHasher& h) const { h.mark_unhashable(); }

  static constexpr int kNoLibcPage = -1;
};

}  // namespace tocttou::sim
