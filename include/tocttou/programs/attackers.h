// Attack program models.
//
// All three attackers implement the same high-level plan — poll the
// watched file until it becomes root-owned (the vulnerability window),
// then redirect the name to /etc/passwd with unlink+symlink — but differ
// in the micro-structure that, per Sections 6 and 7, decides the race on
// a multiprocessor:
//
//  * NaiveAttacker (Figures 2 and 4): calls unlink/symlink only inside
//    the window, so the first unlink takes a libc page-fault trap right
//    at the critical moment.
//  * PrefaultedAttacker (Figure 9): calls unlink/symlink on a dummy file
//    every iteration, pre-faulting the shared libc page; only the file
//    name is switched when the window appears.
//  * PipelinedAttacker (Section 7): two threads; the symlink is issued
//    asynchronously so it can overlap unlink's truncate phase.
// Each keeps its calls' results (take()) and its AttackerStatus, which
// the harness reads by pid; the pipelined threads share a kernel flag.
#pragma once

#include <optional>

#include "tocttou/common/path.h"
#include "tocttou/fs/ops.h"
#include "tocttou/programs/timings.h"
#include "tocttou/sim/fields.h"
#include "tocttou/sim/process.h"

namespace tocttou::programs {

/// What the attacker watches and where it points the name: Paths built
/// once, with the program, and shared by every op it issues.
struct AttackTarget {
  Path watched_path;  // wfname / real_filename
  Path evil_target = "/etc/passwd";
  Path dummy_path;    // v2 only; in an attacker-owned dir

  /// Field list (sim/fields.h).
  static auto fields(auto& t) {
    return std::tie(t.watched_path, t.evil_target, t.dummy_path);
  }
};

/// Common observable state, for tests and the harness. Each pipelined
/// thread fills its own part.
struct AttackerStatus {
  bool detected = false;    // saw st_uid==0 && st_gid==0
  bool attack_done = false; // issued unlink+symlink on the watched path
  int iterations = 0;       // detection-loop iterations executed
  int retries = 0;          // bounded EINTR retries (fault injection only)
  Errno unlink_err = Errno::ok;
  Errno symlink_err = Errno::ok;

  static auto fields(auto& s) {
    return std::tie(s.detected, s.attack_done, s.iterations, s.retries,
                    s.unlink_err, s.symlink_err);
  }
};

/// Base of the attacker programs: the status the harness reads, and the
/// bounded EINTR retry they share.
class Attacker : public sim::Program {
 public:
  explicit Attacker(RetryPolicy retry = {}) : retry_(retry) {}

  const AttackerStatus& status() const { return status_; }

 protected:
  /// EINTR retry with busy-wait backoff (attackers spin, they never
  /// yield the CPU inside the window): on EINTR within the budget, counts
  /// the retry, sets `phase` to `redo` and returns the backoff; otherwise
  /// resets the attempt count.
  template <class Phase>
  std::optional<sim::Action> retry_eintr(Errno e, Phase& phase, Phase redo) {
    if (e != Errno::eintr || attempt_ + 1 >= retry_.max_attempts) {
      attempt_ = 0;
      return std::nullopt;
    }
    ++attempt_;
    ++status_.retries;
    phase = redo;
    return sim::Action::compute(retry_.backoff_for(attempt_), "retry");
  }

  AttackerStatus status_;
  RetryPolicy retry_;
  int attempt_ = 0;
};

/// Figure 2 / Figure 4: the straightforward detection loop.
class NaiveAttacker final : public sim::Listed<NaiveAttacker, Attacker> {
 public:
  /// `loop_comp` is the per-iteration computation (scenario-dependent);
  /// `post_detect_comp` the computation between the positive stat and
  /// the unlink call.
  NaiveAttacker(AttackTarget target, Duration loop_comp,
                Duration post_detect_comp, RetryPolicy retry = {});

  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.target_, self.loop_comp_, self.post_detect_comp_,
                    self.retry_, self.phase_, self.stat_out_, self.stat_err_,
                    self.status_, self.attempt_);
  }

 private:
  enum class Phase { stat, judge, post_detect, unlink, symlink, done };

  /// Keeps the result of the call that left the program in phase_.
  void take(const sim::SyscallResult& r);

  AttackTarget target_;
  Duration loop_comp_;
  Duration post_detect_comp_;
  Phase phase_ = Phase::stat;
  fs::StatBuf stat_out_;
  Errno stat_err_ = Errno::ok;
};

/// Figure 9: unlink/symlink run every iteration (on a dummy when the
/// window is closed), removing the in-window page-fault trap.
class PrefaultedAttacker final
    : public sim::Listed<PrefaultedAttacker, Attacker> {
 public:
  PrefaultedAttacker(AttackTarget target, Duration select_comp,
                     RetryPolicy retry = {});

  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.target_, self.select_comp_, self.retry_,
                    self.phase_, self.window_now_, self.fname_,
                    self.stat_out_, self.stat_err_, self.status_,
                    self.attempt_);
  }

 private:
  enum class Phase { stat, select, unlink, symlink, maybe_exit, done };

  void take(const sim::SyscallResult& r);

  AttackTarget target_;
  Duration select_comp_;
  Phase phase_ = Phase::stat;
  bool window_now_ = false;
  Path fname_;  // the watched path or the dummy: a handle to either
  fs::StatBuf stat_out_;
  Errno stat_err_ = Errno::ok;
};

/// Thread 1 of the pipelined attacker: detection loop + unlink. On
/// detection it sets the flag (waking thread 2) *before* unlinking, so
/// the symlink request races into the semaphore queue right behind the
/// unlink and completes during unlink's truncate phase (Figure 11).
/// Its status holds detected, iterations, its retries and unlink_err.
class PipelinedAttackerMain final
    : public sim::Listed<PipelinedAttackerMain, Attacker> {
 public:
  /// `window_found` is the kernel flag (Kernel::add_flag) thread 2 waits
  /// on.
  PipelinedAttackerMain(AttackTarget target, Duration loop_comp,
                        Duration handoff_comp, sim::FlagId window_found,
                        RetryPolicy retry = {});

  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.target_, self.loop_comp_, self.handoff_comp_,
                    self.window_found_, self.retry_, self.phase_,
                    self.stat_out_, self.stat_err_, self.status_,
                    self.attempt_);
  }

 private:
  enum class Phase { stat, judge, signal, unlink, done };

  void take(const sim::SyscallResult& r);

  AttackTarget target_;
  Duration loop_comp_;
  Duration handoff_comp_;
  sim::FlagId window_found_;
  Phase phase_ = Phase::stat;
  fs::StatBuf stat_out_;
  Errno stat_err_ = Errno::ok;
};

/// Thread 2: waits for the flag, then issues the symlink, retrying on
/// EEXIST (it may beat the unlink into the directory). Its status holds
/// attack_done, symlink_err and its retries.
class PipelinedAttackerSymlinker final
    : public sim::Listed<PipelinedAttackerSymlinker, Attacker> {
 public:
  PipelinedAttackerSymlinker(AttackTarget target, Duration retry_comp,
                             sim::FlagId window_found);

  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.target_, self.retry_comp_, self.window_found_,
                    self.phase_, self.symlink_err_, self.attempts_,
                    self.status_);
  }

 private:
  enum class Phase { wait, symlink, judge, retry, done };
  AttackTarget target_;
  Duration retry_comp_;
  sim::FlagId window_found_;
  Phase phase_ = Phase::wait;
  Errno symlink_err_ = Errno::ok;
  int attempts_ = 0;
};

}  // namespace tocttou::programs
