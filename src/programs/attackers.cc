#include "tocttou/programs/attackers.h"

namespace tocttou::programs {

using sim::Action;
using sim::ProgramContext;

namespace {
bool window_open(Errno err, const fs::StatBuf& s) {
  return err == Errno::ok && s.uid == sim::kRootUid && s.gid == sim::kRootGid;
}
}  // namespace

// ---------------------------------------------------------------------------
// NaiveAttacker (Figures 2 and 4)
// ---------------------------------------------------------------------------

NaiveAttacker::NaiveAttacker(AttackTarget target, Duration loop_comp,
                             Duration post_detect_comp, RetryPolicy retry)
    : Listed(retry),
      target_(std::move(target)),
      loop_comp_(loop_comp),
      post_detect_comp_(post_detect_comp) {}

void NaiveAttacker::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::judge) {
    stat_err_ = r.err;
    if (r.err == Errno::ok) stat_out_ = r.stat;
  } else if (phase_ == Phase::symlink) {
    status_.unlink_err = r.err;
  } else if (phase_ == Phase::done) {
    status_.symlink_err = r.err;
  }
}

Action NaiveAttacker::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  for (;;) {
    switch (phase_) {
      case Phase::stat:
        phase_ = Phase::judge;
        ++status_.iterations;
        return Action::service(fs::stat_op(target_.watched_path));
      case Phase::judge:
        if (window_open(stat_err_, stat_out_)) {
          status_.detected = true;
          phase_ = Phase::post_detect;
          // Branch taken for the first time: the computation before unlink
          // (the unlink call itself will additionally trap on the libc
          // page fault — injected by the kernel, Section 6.2.1).
          return Action::compute(post_detect_comp_, "comp");
        }
        phase_ = Phase::stat;
        return Action::compute(loop_comp_, "comp");
      case Phase::post_detect:
        phase_ = Phase::unlink;
        continue;
      case Phase::unlink:
        phase_ = Phase::symlink;
        return Action::service(fs::unlink_op(target_.watched_path));
      case Phase::symlink:
        // The window is fleeting: an interrupted unlink is retried
        // immediately (busy-wait backoff, no yield).
        if (auto a = retry_eintr(status_.unlink_err, phase_, Phase::unlink)) {
          return std::move(*a);
        }
        phase_ = Phase::done;
        return Action::service(
            fs::symlink_op(target_.evil_target, target_.watched_path));
      case Phase::done:
        if (auto a = retry_eintr(status_.symlink_err, phase_, Phase::symlink)) {
          return std::move(*a);
        }
        status_.attack_done = true;
        return Action::exit_proc();
    }
    return Action::exit_proc();
  }
}

// ---------------------------------------------------------------------------
// PrefaultedAttacker (Figure 9)
// ---------------------------------------------------------------------------

PrefaultedAttacker::PrefaultedAttacker(AttackTarget target,
                                       Duration select_comp, RetryPolicy retry)
    : Listed(retry), target_(std::move(target)), select_comp_(select_comp) {}

void PrefaultedAttacker::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::select) {
    stat_err_ = r.err;
    if (r.err == Errno::ok) stat_out_ = r.stat;
  } else if (phase_ == Phase::symlink) {
    status_.unlink_err = r.err;
  } else if (phase_ == Phase::maybe_exit) {
    status_.symlink_err = r.err;
  }
}

Action PrefaultedAttacker::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  for (;;) {
    switch (phase_) {
      case Phase::stat:
        phase_ = Phase::select;
        ++status_.iterations;
        return Action::service(fs::stat_op(target_.watched_path));
      case Phase::select:
        // Figure 9 lines 3-9: pick the real name inside the window, the
        // dummy otherwise — but ALWAYS fall through to unlink+symlink, so
        // the libc page stays mapped and no trap fires in the window.
        window_now_ = window_open(stat_err_, stat_out_);
        if (window_now_) status_.detected = true;
        fname_ = window_now_ ? target_.watched_path : target_.dummy_path;
        phase_ = Phase::unlink;
        return Action::compute(select_comp_, "comp");
      case Phase::unlink:
        phase_ = Phase::symlink;
        return Action::service(fs::unlink_op(fname_));
      case Phase::symlink:
        // Retry only inside the window; an interrupted dummy-cycle call
        // self-heals on the next iteration anyway.
        if (window_now_) {
          if (auto a = retry_eintr(status_.unlink_err, phase_, Phase::unlink)) {
            return std::move(*a);
          }
        }
        phase_ = Phase::maybe_exit;
        return Action::service(fs::symlink_op(target_.evil_target, fname_));
      case Phase::maybe_exit:
        if (window_now_) {
          if (auto a = retry_eintr(status_.symlink_err, phase_, Phase::symlink)) {
            return std::move(*a);
          }
          status_.attack_done = true;
          phase_ = Phase::done;
          return Action::exit_proc();
        }
        phase_ = Phase::stat;
        continue;
      case Phase::done:
        return Action::exit_proc();
    }
    return Action::exit_proc();
  }
}

// ---------------------------------------------------------------------------
// Pipelined attacker (Section 7)
// ---------------------------------------------------------------------------

PipelinedAttackerMain::PipelinedAttackerMain(AttackTarget target,
                                             Duration loop_comp,
                                             Duration handoff_comp,
                                             sim::FlagId window_found,
                                             RetryPolicy retry)
    : Listed(retry),
      target_(std::move(target)),
      loop_comp_(loop_comp),
      handoff_comp_(handoff_comp),
      window_found_(window_found) {}

void PipelinedAttackerMain::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::judge) {
    stat_err_ = r.err;
    if (r.err == Errno::ok) stat_out_ = r.stat;
  } else if (phase_ == Phase::done) {
    status_.unlink_err = r.err;
  }
}

Action PipelinedAttackerMain::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  switch (phase_) {
    case Phase::stat:
      phase_ = Phase::judge;
      ++status_.iterations;
      return Action::service(fs::stat_op(target_.watched_path));
    case Phase::judge:
      if (window_open(stat_err_, stat_out_)) {
        status_.detected = true;
        // Wake the symlink thread *before* unlinking: its symlink
        // request queues up around the unlink and completes during the
        // truncate phase.
        phase_ = Phase::signal;
        return Action::set_flag(window_found_);
      }
      phase_ = Phase::stat;
      return Action::compute(loop_comp_, "comp");
    case Phase::signal:
      phase_ = Phase::unlink;
      return Action::compute(handoff_comp_, "comp");
    case Phase::unlink:
      phase_ = Phase::done;
      return Action::service(fs::unlink_op(target_.watched_path));
    case Phase::done:
      if (auto a = retry_eintr(status_.unlink_err, phase_, Phase::unlink)) {
        return std::move(*a);
      }
      return Action::exit_proc();
  }
  return Action::exit_proc();
}

PipelinedAttackerSymlinker::PipelinedAttackerSymlinker(
    AttackTarget target, Duration retry_comp, sim::FlagId window_found)
    : target_(std::move(target)),
      retry_comp_(retry_comp),
      window_found_(window_found) {}

Action PipelinedAttackerSymlinker::next(ProgramContext& ctx) {
  switch (phase_) {
    case Phase::wait:
      phase_ = Phase::symlink;
      return Action::wait_flag(window_found_);
    case Phase::symlink:
      phase_ = Phase::judge;
      ++attempts_;
      return Action::service(
          fs::symlink_op(target_.evil_target, target_.watched_path));
    case Phase::judge:
      symlink_err_ = ctx.result().err;
      if ((symlink_err_ == Errno::eexist || symlink_err_ == Errno::eintr) &&
          attempts_ < 64) {
        // EEXIST: we beat the unlink into the directory; retry until the
        // name is free (the unlink holds the semaphore, so the retry
        // blocks right behind it — no spinning storm). EINTR: injected
        // interruption, same recovery. Only the latter counts as a
        // fault-driven retry.
        if (symlink_err_ == Errno::eintr) ++status_.retries;
        phase_ = Phase::retry;
        return next(ctx);
      }
      status_.symlink_err = symlink_err_;
      status_.attack_done = (symlink_err_ == Errno::ok);
      phase_ = Phase::done;
      return Action::exit_proc();
    case Phase::retry:
      phase_ = Phase::symlink;
      return Action::compute(retry_comp_, "comp");
    case Phase::done:
      return Action::exit_proc();
  }
  return Action::exit_proc();
}

}  // namespace tocttou::programs
