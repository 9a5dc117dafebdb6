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

NaiveAttacker::NaiveAttacker(fs::Vfs& vfs, AttackTarget target,
                             Duration loop_comp, Duration post_detect_comp,
                             RetryPolicy retry)
    : vfs_(&vfs),
      target_(std::move(target)),
      loop_comp_(loop_comp),
      post_detect_comp_(post_detect_comp),
      retry_(retry) {}

std::optional<Action> NaiveAttacker::retry_eintr(Errno e, Phase redo) {
  if (e != Errno::eintr || attempt_ + 1 >= retry_.max_attempts) {
    attempt_ = 0;
    return std::nullopt;
  }
  ++attempt_;
  ++status_.retries;
  phase_ = redo;
  return Action::compute(retry_.backoff_for(attempt_), "retry");
}

Action NaiveAttacker::next(ProgramContext& ctx) {
  (void)ctx;
  switch (phase_) {
    case Phase::stat:
      phase_ = Phase::judge;
      ++status_.iterations;
      return Action::service(
          vfs_->stat_op(target_.watched_path, &stat_out_, &stat_err_));
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
      return next(ctx);
    case Phase::unlink:
      phase_ = Phase::symlink;
      return Action::service(
          vfs_->unlink_op(target_.watched_path, &status_.unlink_err));
    case Phase::symlink:
      // The window is fleeting: an interrupted unlink is retried
      // immediately (busy-wait backoff, no yield).
      if (auto a = retry_eintr(status_.unlink_err, Phase::unlink)) return std::move(*a);
      phase_ = Phase::done;
      return Action::service(vfs_->symlink_op(
          target_.evil_target, target_.watched_path, &status_.symlink_err));
    case Phase::done:
      if (auto a = retry_eintr(status_.symlink_err, Phase::symlink)) {
        return std::move(*a);
      }
      status_.attack_done = true;
      return Action::exit_proc();
  }
  return Action::exit_proc();
}

// ---------------------------------------------------------------------------
// PrefaultedAttacker (Figure 9)
// ---------------------------------------------------------------------------

PrefaultedAttacker::PrefaultedAttacker(fs::Vfs& vfs, AttackTarget target,
                                       Duration select_comp, RetryPolicy retry)
    : vfs_(&vfs),
      target_(std::move(target)),
      select_comp_(select_comp),
      retry_(retry) {}

std::optional<Action> PrefaultedAttacker::retry_eintr(Errno e, Phase redo) {
  if (e != Errno::eintr || attempt_ + 1 >= retry_.max_attempts) {
    attempt_ = 0;
    return std::nullopt;
  }
  ++attempt_;
  ++status_.retries;
  phase_ = redo;
  return Action::compute(retry_.backoff_for(attempt_), "retry");
}

Action PrefaultedAttacker::next(ProgramContext& ctx) {
  (void)ctx;
  switch (phase_) {
    case Phase::stat:
      phase_ = Phase::select;
      ++status_.iterations;
      return Action::service(
          vfs_->stat_op(target_.watched_path, &stat_out_, &stat_err_));
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
      return Action::service(vfs_->unlink_op(fname_, &status_.unlink_err));
    case Phase::symlink:
      // Retry only inside the window; an interrupted dummy-cycle call
      // self-heals on the next iteration anyway.
      if (window_now_) {
        if (auto a = retry_eintr(status_.unlink_err, Phase::unlink)) {
          return std::move(*a);
        }
      }
      phase_ = Phase::maybe_exit;
      return Action::service(
          vfs_->symlink_op(target_.evil_target, fname_, &status_.symlink_err));
    case Phase::maybe_exit:
      if (window_now_) {
        if (auto a = retry_eintr(status_.symlink_err, Phase::symlink)) {
          return std::move(*a);
        }
        status_.attack_done = true;
        phase_ = Phase::done;
        return Action::exit_proc();
      }
      phase_ = Phase::stat;
      return next(ctx);
    case Phase::done:
      return Action::exit_proc();
  }
  return Action::exit_proc();
}

// ---------------------------------------------------------------------------
// Pipelined attacker (Section 7)
// ---------------------------------------------------------------------------

PipelinedAttackerMain::PipelinedAttackerMain(fs::Vfs& vfs, AttackTarget target,
                                             Duration loop_comp,
                                             Duration handoff_comp,
                                             PipelinedAttackState* state,
                                             RetryPolicy retry)
    : vfs_(&vfs),
      target_(std::move(target)),
      loop_comp_(loop_comp),
      handoff_comp_(handoff_comp),
      state_(state),
      retry_(retry) {}

std::optional<Action> PipelinedAttackerMain::retry_eintr(Errno e, Phase redo) {
  if (e != Errno::eintr || attempt_ + 1 >= retry_.max_attempts) {
    attempt_ = 0;
    return std::nullopt;
  }
  ++attempt_;
  ++state_->status.retries;
  phase_ = redo;
  return Action::compute(retry_.backoff_for(attempt_), "retry");
}

Action PipelinedAttackerMain::next(ProgramContext& ctx) {
  (void)ctx;
  switch (phase_) {
    case Phase::stat:
      phase_ = Phase::judge;
      ++state_->status.iterations;
      return Action::service(
          vfs_->stat_op(target_.watched_path, &stat_out_, &stat_err_));
    case Phase::judge:
      if (window_open(stat_err_, stat_out_)) {
        state_->status.detected = true;
        // Wake the symlink thread *before* unlinking: its symlink
        // request queues up around the unlink and completes during the
        // truncate phase.
        phase_ = Phase::signal;
        return Action::set_flag(&state_->window_found);
      }
      phase_ = Phase::stat;
      return Action::compute(loop_comp_, "comp");
    case Phase::signal:
      phase_ = Phase::unlink;
      return Action::compute(handoff_comp_, "comp");
    case Phase::unlink:
      phase_ = Phase::done;
      return Action::service(
          vfs_->unlink_op(target_.watched_path, &state_->status.unlink_err));
    case Phase::done:
      if (auto a = retry_eintr(state_->status.unlink_err, Phase::unlink)) {
        return std::move(*a);
      }
      return Action::exit_proc();
  }
  return Action::exit_proc();
}

PipelinedAttackerSymlinker::PipelinedAttackerSymlinker(
    fs::Vfs& vfs, AttackTarget target, Duration retry_comp,
    PipelinedAttackState* state)
    : vfs_(&vfs),
      target_(std::move(target)),
      retry_comp_(retry_comp),
      state_(state) {}

Action PipelinedAttackerSymlinker::next(ProgramContext& ctx) {
  (void)ctx;
  switch (phase_) {
    case Phase::wait:
      phase_ = Phase::symlink;
      return Action::wait_flag(&state_->window_found);
    case Phase::symlink:
      phase_ = Phase::judge;
      ++attempts_;
      return Action::service(vfs_->symlink_op(
          target_.evil_target, target_.watched_path, &symlink_err_));
    case Phase::judge:
      if ((symlink_err_ == Errno::eexist || symlink_err_ == Errno::eintr) &&
          attempts_ < 64) {
        // EEXIST: we beat the unlink into the directory; retry until the
        // name is free (the unlink holds the semaphore, so the retry
        // blocks right behind it — no spinning storm). EINTR: injected
        // interruption, same recovery. Only the latter counts as a
        // fault-driven retry.
        if (symlink_err_ == Errno::eintr) ++state_->status.retries;
        phase_ = Phase::retry;
        return next(ctx);
      }
      state_->status.symlink_err = symlink_err_;
      state_->status.attack_done = (symlink_err_ == Errno::ok);
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
