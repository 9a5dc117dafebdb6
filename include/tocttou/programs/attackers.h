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
#pragma once

#include <optional>

#include "tocttou/common/path.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/programs/timings.h"
#include "tocttou/sim/fields.h"
#include "tocttou/sim/semaphore.h"

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

/// Common observable state, for tests and the harness.
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

/// Figure 2 / Figure 4: the straightforward detection loop.
class NaiveAttacker final : public sim::Listed<NaiveAttacker, sim::Program> {
 public:
  /// `loop_comp` is the per-iteration computation (scenario-dependent);
  /// `post_detect_comp` the computation between the positive stat and
  /// the unlink call.
  NaiveAttacker(fs::Vfs& vfs, AttackTarget target, Duration loop_comp,
                Duration post_detect_comp, RetryPolicy retry = {});

  sim::Action next(sim::ProgramContext& ctx) override;
  const AttackerStatus& status() const { return status_; }

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.target_, self.loop_comp_,
                    self.post_detect_comp_, self.retry_, self.phase_,
                    self.stat_out_, self.stat_err_, self.status_,
                    self.attempt_);
  }

 private:
  enum class Phase { stat, judge, post_detect, unlink, symlink, done };

  /// EINTR retry with busy-wait backoff (attackers spin, they never
  /// yield the CPU inside the window).
  std::optional<sim::Action> retry_eintr(Errno e, Phase redo);

  fs::Vfs* vfs_;
  AttackTarget target_;
  Duration loop_comp_;
  Duration post_detect_comp_;
  RetryPolicy retry_;
  Phase phase_ = Phase::stat;
  fs::StatBuf stat_out_;
  Errno stat_err_ = Errno::ok;
  AttackerStatus status_;
  int attempt_ = 0;
};

/// Figure 9: unlink/symlink run every iteration (on a dummy when the
/// window is closed), removing the in-window page-fault trap.
class PrefaultedAttacker final
    : public sim::Listed<PrefaultedAttacker, sim::Program> {
 public:
  PrefaultedAttacker(fs::Vfs& vfs, AttackTarget target, Duration select_comp,
                     RetryPolicy retry = {});

  sim::Action next(sim::ProgramContext& ctx) override;
  const AttackerStatus& status() const { return status_; }

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.target_, self.select_comp_, self.retry_,
                    self.phase_, self.window_now_, self.fname_,
                    self.stat_out_, self.stat_err_, self.status_,
                    self.attempt_);
  }

 private:
  enum class Phase { stat, select, unlink, symlink, maybe_exit, done };

  std::optional<sim::Action> retry_eintr(Errno e, Phase redo);

  fs::Vfs* vfs_;
  AttackTarget target_;
  Duration select_comp_;
  RetryPolicy retry_;
  Phase phase_ = Phase::stat;
  bool window_now_ = false;
  Path fname_;  // the watched path or the dummy: a handle to either
  fs::StatBuf stat_out_;
  Errno stat_err_ = Errno::ok;
  AttackerStatus status_;
  int attempt_ = 0;
};

/// Section 7: shared state of the two pipelined attack threads.
/// A checkpoint copies it as it is (the flag's wait queue carries pids
/// only); RoundRun registers its range, since both threads point at it.
struct PipelinedAttackState {
  sim::EventFlag window_found{"window_found"};
  AttackerStatus status;
};

/// Thread 1 of the pipelined attacker: detection loop + unlink. On
/// detection it sets the flag (waking thread 2) *before* unlinking, so
/// the symlink request races into the semaphore queue right behind the
/// unlink and completes during unlink's truncate phase (Figure 11).
class PipelinedAttackerMain final
    : public sim::Listed<PipelinedAttackerMain, sim::Program> {
 public:
  PipelinedAttackerMain(fs::Vfs& vfs, AttackTarget target, Duration loop_comp,
                        Duration handoff_comp, PipelinedAttackState* state,
                        RetryPolicy retry = {});

  sim::Action next(sim::ProgramContext& ctx) override;

  /// `state_` is a pointer, so the digest skips the shared
  /// PipelinedAttackState (flag + status); RoundRun hashes it once.
  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.target_, self.loop_comp_,
                    self.handoff_comp_, self.state_, self.retry_, self.phase_,
                    self.stat_out_, self.stat_err_, self.attempt_);
  }

 private:
  enum class Phase { stat, judge, signal, unlink, done };

  std::optional<sim::Action> retry_eintr(Errno e, Phase redo);

  fs::Vfs* vfs_;
  AttackTarget target_;
  Duration loop_comp_;
  Duration handoff_comp_;
  PipelinedAttackState* state_;
  RetryPolicy retry_;
  Phase phase_ = Phase::stat;
  fs::StatBuf stat_out_;
  Errno stat_err_ = Errno::ok;
  int attempt_ = 0;
};

/// Thread 2: waits for the flag, then issues the symlink, retrying on
/// EEXIST (it may beat the unlink into the directory).
class PipelinedAttackerSymlinker final
    : public sim::Listed<PipelinedAttackerSymlinker, sim::Program> {
 public:
  PipelinedAttackerSymlinker(fs::Vfs& vfs, AttackTarget target,
                             Duration retry_comp, PipelinedAttackState* state);

  sim::Action next(sim::ProgramContext& ctx) override;

  /// Shared state hashed by RoundRun (see PipelinedAttackerMain).
  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.target_, self.retry_comp_, self.state_,
                    self.phase_, self.symlink_err_, self.attempts_);
  }

 private:
  enum class Phase { wait, symlink, judge, retry, done };
  fs::Vfs* vfs_;
  AttackTarget target_;
  Duration retry_comp_;
  PipelinedAttackState* state_;
  Phase phase_ = Phase::wait;
  Errno symlink_err_ = Errno::ok;
  int attempts_ = 0;
};

}  // namespace tocttou::programs
