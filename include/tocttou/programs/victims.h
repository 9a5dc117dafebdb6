// Victim program models.
//
// Each victim reproduces the exact syscall sequence of its real
// counterpart's save path, with calibrated compute gaps between the
// calls (ProgramTimings). The victims run as root editing a file owned
// by the attacker — the paper's precondition list (Section 2.3). Their
// configs hold Paths, parsed once when the config is built and shared
// by every op the victim issues. take() keeps each call's result.
#pragma once

#include <cstdint>
#include <optional>

#include "tocttou/common/path.h"
#include "tocttou/fs/ops.h"
#include "tocttou/programs/timings.h"
#include "tocttou/sim/fields.h"
#include "tocttou/sim/process.h"

namespace tocttou::programs {

/// vi 6.1 save path (Figure 1): the <open, chown> pair. The window spans
/// the whole buffer write, so its length grows with the file size —
/// the basis of Figures 6 and 7.
///
///   rename(wfname -> backup)
///   fd = open(wfname, O_CREAT|O_TRUNC|O_WRONLY)   <- window opens
///   write(fd, ...) xN
///   close(fd)
///   chown(wfname, st_old.st_uid, st_old.st_gid)   <- window closes
struct ViVictimConfig {
  Path wfname;
  Path backup_name;
  std::uint64_t file_bytes = 100 * 1024;
  sim::Uid owner_uid = 500;  // the original owner (the attacker)
  sim::Gid owner_gid = 500;
  /// Pre-save "user editing" computation; on a uniprocessor this
  /// randomizes where the save falls within the victim's time slice.
  Duration think_time = Duration::zero();
  /// The Section 8 remedy: restore ownership with fchown(fd) before
  /// closing instead of chown(path) after — the attr call then binds to
  /// the inode created by this open() and cannot be redirected.
  bool fd_attr_remedy = false;
  ProgramTimings t;

  /// Field list (sim/fields.h).
  static auto fields(auto& c) {
    return std::tie(c.wfname, c.backup_name, c.file_bytes, c.owner_uid,
                    c.owner_gid, c.think_time, c.fd_attr_remedy, c.t);
  }
};

class ViVictim final : public sim::Listed<ViVictim, sim::Program> {
 public:
  explicit ViVictim(ViVictimConfig cfg);
  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.cfg_, self.phase_, self.written_,
                    self.pending_chunk_, self.open_out_, self.load_out_,
                    self.err_, self.attempt_, self.retries_);
  }

  /// Bounded EINTR retries performed so far (cfg.t.retry policy).
  int retries() const { return retries_; }

 private:
  enum class Phase {
    load_open, load_read, load_close,  // startup: read the file into the
                                       // buffer (pre-faults libc pages)
    think, rename, pre_open, open, prep_write, write_chunk, between_chunks,
    pre_close, fchown_fd, close, pre_chown, chown, chown_ret, done,
  };

  /// Keeps the result of the call that left the victim in phase_.
  void take(const sim::SyscallResult& r);
  /// If `e` is EINTR and the retry budget allows, backs off (sleep) and
  /// redoes phase `redo`; otherwise resets the attempt counter and lets
  /// the caller proceed (success, hard error, or budget exhausted).
  std::optional<sim::Action> retry_eintr(Errno e, Phase redo);

  ViVictimConfig cfg_;
  Phase phase_ = Phase::load_open;
  std::uint64_t written_ = 0;
  std::uint64_t pending_chunk_ = 0;  // issued but not yet committed write
  fs::OpenResult open_out_;
  fs::OpenResult load_out_;
  Errno err_ = Errno::ok;
  int attempt_ = 0;
  int retries_ = 0;
};

/// gedit 2.8.3 save path (Figure 3): the <rename, chown> pair. The
/// window is only the comp gap between rename and chmod — a few
/// microseconds — which is why the attack never lands on a uniprocessor
/// (Section 4.2) but does on multiprocessors (Section 6).
///
///   fd = open(temp, O_CREAT|O_EXCL|O_WRONLY); write*; close
///   rename(real -> backup)
///   rename(temp -> real)                      <- window opens
///   chmod(real, st.st_mode)
///   chown(real, st.st_uid, st.st_gid)         <- window closes
struct GeditVictimConfig {
  Path real_filename;
  Path temp_filename;
  Path backup_name;
  std::uint64_t file_bytes = 16 * 1024;
  sim::Uid owner_uid = 500;
  sim::Gid owner_gid = 500;
  fs::Mode owner_mode = 0644;
  Duration think_time = Duration::zero();
  /// The Section 8 remedy: fchmod/fchown the scratch fd BEFORE the
  /// rename, so the renamed file is never root-owned under the watched
  /// name and there is nothing to detect.
  bool fd_attr_remedy = false;
  ProgramTimings t;

  static auto fields(auto& c) {
    return std::tie(c.real_filename, c.temp_filename, c.backup_name,
                    c.file_bytes, c.owner_uid, c.owner_gid, c.owner_mode,
                    c.think_time, c.fd_attr_remedy, c.t);
  }
};

class GeditVictim final : public sim::Listed<GeditVictim, sim::Program> {
 public:
  explicit GeditVictim(GeditVictimConfig cfg);
  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.cfg_, self.phase_, self.written_,
                    self.pending_chunk_, self.open_out_, self.load_out_,
                    self.err_, self.attempt_, self.retries_);
  }

  /// Bounded EINTR retries performed so far (cfg.t.retry policy).
  int retries() const { return retries_; }

 private:
  enum class Phase {
    load_open, load_read, load_close,  // startup: read the file
    think, prep, open_temp, open_ret, write_chunk, between_chunks,
    fchmod_fd, fchown_fd,  // fd_attr_remedy only
    close_temp, pre_backup, backup, pre_rename, rename, rename_ret,
    comp_gap, chmod, chmod_chown_gap, chown, chown_ret, done,
  };

  void take(const sim::SyscallResult& r);
  /// Same contract as ViVictim::retry_eintr.
  std::optional<sim::Action> retry_eintr(Errno e, Phase redo);

  GeditVictimConfig cfg_;
  Phase phase_ = Phase::load_open;
  std::uint64_t written_ = 0;
  std::uint64_t pending_chunk_ = 0;  // issued but not yet committed write
  fs::OpenResult open_out_;
  fs::OpenResult load_out_;
  Errno err_ = Errno::ok;
  int attempt_ = 0;
  int retries_ = 0;
};

/// A victim in the style of the paper's rpm example (Section 3.2): the
/// process is (almost) always suspended inside its window because the
/// window contains blocking I/O. On a uniprocessor this makes
/// P(victim suspended) ~ 1 and the attack succeeds nearly always — the
/// upper-bound case of the model.
///
///   fd = open(path, O_CREAT|O_TRUNC)  <- check (file becomes root-owned)
///   [sleeps `io_time` on device I/O]
///   close(fd)
///   chown(path, owner)                <- use
struct SuspendingVictimConfig {
  Path path;
  sim::Uid owner_uid = 500;
  sim::Gid owner_gid = 500;
  Duration io_time = Duration::millis(5);
  Duration think_time = Duration::zero();

  static auto fields(auto& c) {
    return std::tie(c.path, c.owner_uid, c.owner_gid, c.io_time,
                    c.think_time);
  }
};

class SuspendingVictim final
    : public sim::Listed<SuspendingVictim, sim::Program> {
 public:
  explicit SuspendingVictim(SuspendingVictimConfig cfg);
  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.cfg_, self.phase_, self.open_out_, self.err_);
  }

 private:
  enum class Phase { think, rename_away, check, io, close, use, done };
  void take(const sim::SyscallResult& r);
  SuspendingVictimConfig cfg_;
  Phase phase_ = Phase::think;
  fs::OpenResult open_out_;
  Errno err_ = Errno::ok;
};

/// The classic sendmail-style victim from the paper's introduction:
/// checks that the mailbox is not a symlink (lstat), then appends to it.
/// The attack swaps the mailbox for a symlink to /etc/passwd between the
/// two calls, making sendmail append attacker-controlled bytes to the
/// password file.
///
///   lstat(mbox)  -> must not be a symlink   <- check
///   fd = open(mbox, O_WRONLY); write(fd); close(fd)  <- use
struct SendmailVictimConfig {
  Path mailbox;
  std::uint64_t message_bytes = 2 * 1024;
  Duration check_use_gap = Duration::micros(60);
  Duration think_time = Duration::zero();

  static auto fields(auto& c) {
    return std::tie(c.mailbox, c.message_bytes, c.check_use_gap,
                    c.think_time);
  }
};

class SendmailVictim final : public sim::Listed<SendmailVictim, sim::Program> {
 public:
  explicit SendmailVictim(SendmailVictimConfig cfg);
  sim::Action next(sim::ProgramContext& ctx) override;

  static auto fields(auto& self) {
    return std::tie(self.cfg_, self.phase_, self.stat_out_, self.open_out_,
                    self.err_, self.rejected_);
  }

  /// True if the check step rejected the mailbox (symlink found in time).
  bool rejected() const { return rejected_; }

 private:
  enum class Phase { think, check, gap, open, write, close, done };
  void take(const sim::SyscallResult& r);
  SendmailVictimConfig cfg_;
  Phase phase_ = Phase::think;
  fs::StatBuf stat_out_;
  fs::OpenResult open_out_;
  Errno err_ = Errno::ok;
  bool rejected_ = false;
};

}  // namespace tocttou::programs
