#include "tocttou/sim/process.h"

#include "tocttou/sim/fields.h"

namespace tocttou::sim {

void ServiceContext::no_vfs() {
  throw SimError("check failed: no Vfs is attached to the kernel");
}

const char* to_string(ProcState s) {
  switch (s) {
    case ProcState::ready:
      return "ready";
    case ProcState::running:
      return "running";
    case ProcState::blocked_sem:
      return "blocked_sem";
    case ProcState::blocked_io:
      return "blocked_io";
    case ProcState::blocked_flag:
      return "blocked_flag";
    case ProcState::sleeping:
      return "sleeping";
    case ProcState::exited:
      return "exited";
  }
  return "?";
}

void Process::hash_state(StateHasher& h) const {
  h.u64(pid_);
  // An exited process is inert: the kernel never dispatches it again and
  // no future scheduling or VFS behavior can read its residual fields
  // (they are frozen mid-history — segment stamps, labels —
  // and two schedules that reach the same live state routinely disagree
  // on them). Hash only the fact of the exit.
  if (state_ == ProcState::exited) {
    h.u32(static_cast<std::uint32_t>(state_));
    return;
  }
  h.str(name_);
  h.i64(priority_);
  h.u64(uid_);
  h.u64(gid_);
  h.u64(affinity_mask_);
  h.boolean(kernel_thread_);
  h.u32(static_cast<std::uint32_t>(state_));
  h.i64(last_cpu_);
  h.dur(slice_left_);
  // Liveness-conditional hashing: a field is digested only while some
  // future read can observe its value. Stale copies (overwritten before
  // the next read) are exactly what keeps observably identical states
  // from colliding, so they are canonicalized away:
  //  - cpu_time_, preemptions_: pure accounting, read only by
  //    tests/metrics, never by scheduling or programs. A forced
  //    preemption bumps them once and nothing ever resets them.
  //  - cpu_: meaningful only while running (free_cpu reads it);
  //    last_cpu_ stays hashed because schedulers read it for affinity.
  //  - seg_start_/seg_kind_/seg_len_: read at segment end or
  //    preemption, both of which require state_ == running.
  //  - seg_gen_: its absolute value is never read — only equality with
  //    a pending segment-end event's generation matters, and the event
  //    queue's canonical hash captures that validity bit instead.
  //  - op_enter_: read when the in-flight op completes (journal enter
  //    timestamp, service-time metric); stale once op_ is null.
  //  - block_start_/wait_ino_/wait_flag_/wake_time_: read only by
  //    metrics and trace-event emission, both disabled in explorer
  //    leaves (canonical_explore_config), which is the only context that
  //    consumes these digests.
  if (state_ == ProcState::running) {
    h.i64(cpu_);
    h.time(seg_start_);
    h.u32(static_cast<std::uint32_t>(seg_kind_));
    h.dur(seg_len_);
  }
  h.dur(compute_left_);
  h.str(compute_label_);
  h.boolean(need_resched_);
  h.u64(mapped_libc_pages_.size());
  for (int page : mapped_libc_pages_) h.i64(page);
  // Pending only from a call's completion to the next() after it (one
  // kernel event, unless a fault round's completion spike splits them).
  h.boolean(result_pending_);
  if (result_pending_) {
    h.u32(static_cast<std::uint32_t>(result_.err));
    h.i64(result_.fd);
    hash_field(h, result_.stat);
    h.str(result_.link.str());
  }
  h.boolean(wake_pending_);
  // Which semaphores are held is each inode semaphore's owner, which
  // the Vfs digest covers.
  h.u64(sems_held_);
  h.boolean(static_cast<bool>(op_));
  if (op_) {
    h.time(op_enter_);
    op_->hash_state(h);
  }
  h.boolean(static_cast<bool>(program_));
  if (program_) program_->hash_state(h);
}

}  // namespace tocttou::sim
