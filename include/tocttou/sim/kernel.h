// The simulated kernel: event loop, CPUs, dispatching, blocking,
// semaphores, flags, traps, and tracing. This is the substrate every
// experiment runs on; see DESIGN.md §4 for the architecture. A round's
// file system, observers and fault injector attach here and nowhere
// else: the kernel makes every fault decision, produces every
// simulation-time metric (ops report theirs through metrics()) and hands
// every op the Vfs through its context. Its pending work is typed events
// (sim/event_queue.h) that step() dispatches through one switch, its run
// queues hold pids, and it owns the event flags programs name by index:
// what a checkpoint fork copies and the state digest hashes is plain
// data, exactly as the kernel will run it. So is what a process waits
// on: it becomes text only for a trace or metrics.
// A copy is member by member with every sink detached (SinkPtr), so a
// fork never writes into its parent's tree or streams.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/rng.h"
#include "tocttou/common/time.h"
#include "tocttou/sim/event_queue.h"
#include "tocttou/sim/ids.h"
#include "tocttou/sim/machine.h"
#include "tocttou/sim/owned.h"
#include "tocttou/sim/process.h"
#include "tocttou/sim/scheduler.h"
#include "tocttou/sim/semaphore.h"
#include "tocttou/trace/journal.h"
#include "tocttou/trace/window.h"

namespace tocttou::metrics {
class Registry;
}

namespace tocttou::detect {
class SyncLog;
}

namespace tocttou::fs {
class Vfs;
}

namespace tocttou::sim {

class FaultInjector;

/// A pointer to one of the round's sinks (its file system, an observer or
/// the fault injector). A copy starts detached (null) until its owner
/// attaches its own.
template <typename T>
class SinkPtr {
 public:
  SinkPtr() = default;
  explicit SinkPtr(T* p) : p_(p) {}
  SinkPtr(const SinkPtr&) {}
  SinkPtr& operator=(const SinkPtr&) = delete;
  SinkPtr& operator=(T* p) {
    p_ = p;
    return *this;
  }

  operator T*() const { return p_; }
  T* operator->() const { return p_; }

 private:
  T* p_ = nullptr;
};

class Kernel {
 public:
  /// `sched` supplies policy; `trace` may be nullptr to disable tracing
  /// (campaign mode records journals only when trace is provided).
  Kernel(MachineSpec spec, std::unique_ptr<Scheduler> sched,
         std::uint64_t seed, trace::RoundTrace* trace = nullptr);
  ~Kernel();

  /// Checkpoint support: a member-wise copy of a mid-round kernel (it
  /// names processes by pid, semaphores by inode and flags by index),
  /// with every sink detached.
  Kernel(const Kernel&) = default;
  Kernel& operator=(const Kernel&) = delete;

  /// Attaches the round's file system, which ops reach through
  /// ServiceContext::vfs() (nullptr = none). Must outlive the kernel.
  void set_vfs(fs::Vfs* vfs) { vfs_ = vfs; }

  /// Attaches the round's trace (nullptr = none; campaign mode records
  /// journals only when one is attached). Must outlive the kernel.
  void set_trace(trace::RoundTrace* trace) { trace_ = trace; }

  /// Adds an unset event flag and returns the index actions name it by.
  /// `name` must have static storage (a string literal).
  FlagId add_flag(std::string_view name);
  const EventFlag& flag(FlagId id) const;

  /// Creates a process; it becomes runnable immediately (dispatch happens
  /// when the event loop next runs).
  Pid spawn(std::unique_ptr<Program> program, SpawnOptions opts);

  /// Runs until `stop()` returns true (checked after every event), the
  /// event queue drains, or virtual time exceeds `limit`.
  /// Returns true if `stop()` fired.
  bool run_until(const std::function<bool()>& stop,
                 SimTime limit = SimTime::never());

  /// Runs until every non-kernel process has exited (or limit).
  bool run_to_exit(SimTime limit = SimTime::never());

  /// Single-step: pops exactly one pending event and dispatches it by
  /// kind. Returns false (and does nothing) when the queue is empty. The
  /// checkpoint/fork explorer drives rounds event-by-event so it can stop
  /// at a fork boundary.
  bool step();

  /// Timestamp of the next pending event (SimTime::never() when idle).
  SimTime next_event_time() const { return queue_.peek_time(); }

  SimTime now() const { return queue_.now(); }
  /// True when the event queue has drained — nothing can ever run again.
  /// Distinguishes a starved/deadlocked round from one that hit a time
  /// limit with work still pending.
  bool idle() const { return queue_.empty(); }
  const MachineSpec& spec() const { return spec_; }
  Rng& rng() { return rng_; }
  trace::RoundTrace* trace() const { return trace_; }

  Process& process(Pid pid);
  const Process& process(Pid pid) const;
  std::size_t live_user_processes() const;
  std::uint64_t events_executed() const { return queue_.executed(); }

  /// The scheduler driving this kernel (the explore subsystem rebinds
  /// its choice slot when a checkpointed round migrates across workers).
  Scheduler& sched() { return *sched_; }

  /// Which process currently runs on `cpu` (kNoPid if idle).
  Pid running_on(CpuId cpu) const;

  /// Emits an instantaneous marker event attributed to `pid`.
  void mark(Pid pid, std::string label, std::string detail = "");

  /// Spawns the machine's background kernel-thread load (one generator
  /// per CPU) per spec().background. Call at most once.
  void start_background_load();

  /// Attaches a fault injector for this round (nullptr = none). The
  /// kernel makes every fault decision: it asks the injector whether a
  /// syscall fails at entry (at the op's first advance, after its libc
  /// trap and any deferred preemption — the injector's single Rng stream
  /// makes the order of its queries visible), and consults it at service
  /// completion, wakeup delivery, and syscall return. It must outlive
  /// the kernel. The no-fault fast path is a single null check at each
  /// site, and a plan that cannot fail a syscall skips the entry check.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Attaches a metrics registry for this round (nullptr = none; the
  /// default). With a registry attached the kernel counts syscalls by
  /// op, context switches, steals, and preemptions, and observes
  /// run-queue depth, wakeup latency, syscall service time, and blocked
  /// waits; service ops report through metrics() (the path walker's
  /// depth, symlink restarts, and slow-path lookups). Every site is a
  /// single null check when disabled, keeping the no-metrics path
  /// byte-identical. Must outlive the kernel.
  void set_metrics(metrics::Registry* metrics) { metrics_ = metrics; }
  metrics::Registry* metrics() const { return metrics_; }

  /// Canonical state digest contribution (DESIGN.md §10): pending
  /// events (a segment end only while it can still fire), rng, process
  /// table (including program/op state machines), CPU occupancy, the
  /// flag table and scheduler run queues. Rounds with a fault injector
  /// attached are unhashable — the injector's trigger counters are
  /// future-relevant state the kernel cannot see.
  void hash_state(StateHasher& h) const;

  /// Attaches the round's victim-window tracker (nullptr = none). The
  /// kernel feeds it each completed syscall of the process it tracks,
  /// where the journal appends the call's record, so it sees exactly the
  /// calls and times the journal would hold — a call failed at entry, one
  /// held by a completion spike, one whose process is killed as it
  /// returns — without a journal. A single null check when detached.
  /// Must outlive the kernel.
  void set_window_tracker(trace::WindowTracker* window) { window_ = window; }

  /// Attaches a synchronization-event sink for this round (nullptr =
  /// none; the default). With a sink attached the kernel appends its
  /// ordering actions — process spawn/exit, inode-semaphore ownership
  /// transfers, event-flag set/wake handoffs, syscall enter/exit — for
  /// the happens-before detector (detect/detector.h). Every emission
  /// site is a single null check when disabled, keeping the detect-off
  /// path byte-identical. A sink needs a trace (CHECKed): each sc_exit
  /// names the journal record the kernel has just appended. Must
  /// outlive the kernel.
  void set_sync_log(detect::SyncLog* sync) {
    TOCTTOU_CHECK(sync == nullptr || trace_ != nullptr,
                  "a sync log needs a trace to index its journal records");
    sync_ = sync;
  }

 private:
  struct CpuState {
    Pid running = kNoPid;
  };

  // --- dispatch & execution machinery ---
  void make_ready(Process& p, bool just_woken);
  void dispatch(CpuId cpu);
  void continue_process(Process& p);
  void start_next_action(Process& p);
  void advance_service(Process& p);
  /// An op's first advance in a round that injects syscall errors: the
  /// injector's verdict, or the op's own first step.
  Step first_advance(Process& p, ServiceContext& ctx);
  void begin_segment(Process& p, Process::SegKind kind, Duration effective);
  void on_segment_end(Pid pid, std::uint64_t gen);
  void finish_segment(Process& p, Duration ran);
  void preempt(Process& p, bool requeue_front);
  void block_on_sem(Process& p, Semaphore& sem);
  void release_sem(Process& p, Semaphore& sem);
  void wake(Pid pid, bool faultable = true);
  /// Traces the wait `p` is woken from, labelled "sem:i_sem:<ino>",
  /// "flag:<name>" or, for device I/O, the op in service's name.
  void trace_wait(const Process& p);
  void handle_exit(Process& p);
  /// Hands the op's result to its process and journals the call.
  void complete_service(Process& p);
  /// Completes the syscall, then either kills the process (an injected
  /// mid-round death) or lets it pick its next action.
  void finish_syscall(Process& p);
  void free_cpu(Process& p);
  void charge(Process& p, Duration ran);
  void trace_segment(const Process& p, trace::Category cat,
                     std::string_view label, SimTime begin, SimTime end);
  void fill_allowed_cpus(const Process& p, std::vector<CpuId>* out) const;
  void fill_idle_allowed_cpus(const Process& p, std::vector<CpuId>* out) const;

  MachineSpec spec_;
  Owned<Scheduler> sched_;
  Rng rng_;
  SinkPtr<fs::Vfs> vfs_;
  SinkPtr<trace::RoundTrace> trace_;
  SinkPtr<FaultInjector> faults_;
  SinkPtr<metrics::Registry> metrics_;
  SinkPtr<detect::SyncLog> sync_;
  SinkPtr<trace::WindowTracker> window_;
  // Scratch for make_ready placement; avoids two vector allocations per
  // wakeup on the hot path. Safe because placement fully consumes the
  // lists before anything re-entrant runs.
  std::vector<CpuId> allowed_scratch_;
  std::vector<CpuId> idle_scratch_;

  EventQueue queue_;
  std::vector<Owned<Process>> procs_;  // index = pid - 1
  std::vector<CpuState> cpus_;
  std::vector<EventFlag> flags_;  // index = FlagId
  bool background_started_ = false;
};

}  // namespace tocttou::sim
