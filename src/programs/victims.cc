#include "tocttou/programs/victims.h"

#include <algorithm>
#include <string>

namespace tocttou::programs {

using sim::Action;
using sim::ProgramContext;

// ---------------------------------------------------------------------------
// vi
// ---------------------------------------------------------------------------

ViVictim::ViVictim(ViVictimConfig cfg) : cfg_(std::move(cfg)) {}

void ViVictim::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::load_read) {
    load_out_ = {r.fd, r.err};
  } else if (phase_ == Phase::prep_write) {
    open_out_ = {r.fd, r.err};
  } else {
    err_ = r.err;  // every other call returns only an errno
  }
}

std::optional<Action> ViVictim::retry_eintr(Errno e, Phase redo) {
  const auto backoff = cfg_.t.retry.retry_after(e, attempt_, retries_);
  if (!backoff) return std::nullopt;
  phase_ = redo;
  return Action::sleep_for(*backoff);
}

Action ViVictim::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  for (;;) {
    switch (phase_) {
      case Phase::load_open:
        phase_ = Phase::load_read;
        return Action::service(
            fs::open_op(cfg_.wfname, fs::OpenFlags::read_only(), 0));
      case Phase::load_read:
        phase_ = Phase::load_close;
        if (load_out_.fd < 0) continue;
        return Action::service(
            fs::read_op(load_out_.fd, cfg_.file_bytes));
      case Phase::load_close:
        phase_ = Phase::think;
        if (load_out_.fd >= 0) {
          return Action::service(fs::close_op(load_out_.fd));
        }
        continue;
      case Phase::think:
        phase_ = Phase::rename;
        if (cfg_.think_time > Duration::zero()) {
          return Action::compute(cfg_.think_time, "edit");
        }
        [[fallthrough]];
      case Phase::rename:
        phase_ = Phase::pre_open;
        return Action::service(
            fs::rename_op(cfg_.wfname, cfg_.backup_name));
      case Phase::pre_open:
        // A real editor retries an interrupted rename before giving up.
        if (auto a = retry_eintr(err_, Phase::rename)) return std::move(*a);
        phase_ = Phase::open;
        return Action::compute(cfg_.t.vi_pre_open, "comp");
      case Phase::open:
        phase_ = Phase::prep_write;
        return Action::service(fs::open_op(
            cfg_.wfname, fs::OpenFlags::write_create_trunc(), 0644));
      case Phase::prep_write:
        if (auto a = retry_eintr(open_out_.err, Phase::open)) return std::move(*a);
        if (open_out_.fd < 0) {  // editor would report an error and bail
          phase_ = Phase::done;
          return Action::exit_proc();
        }
        phase_ = Phase::write_chunk;
        return Action::compute(cfg_.t.vi_prep_write, "comp");
      case Phase::write_chunk: {
        if (written_ >= cfg_.file_bytes) {
          phase_ = Phase::pre_close;
          continue;
        }
        // The chunk commits to written_ only once between_chunks has seen
        // the write succeed, so an EINTR'd write is reissued whole.
        pending_chunk_ =
            std::min<std::uint64_t>(cfg_.t.vi_write_chunk_bytes,
                                    cfg_.file_bytes - written_);
        phase_ = Phase::between_chunks;
        return Action::service(fs::write_op(open_out_.fd, pending_chunk_));
      }
      case Phase::between_chunks:
        if (auto a = retry_eintr(err_, Phase::write_chunk)) return std::move(*a);
        written_ += pending_chunk_;
        pending_chunk_ = 0;
        phase_ = Phase::write_chunk;
        if (cfg_.t.vi_between_chunks > Duration::zero() &&
            written_ < cfg_.file_bytes) {
          return Action::compute(cfg_.t.vi_between_chunks, "comp");
        }
        continue;
      case Phase::pre_close:
        phase_ = cfg_.fd_attr_remedy ? Phase::fchown_fd : Phase::close;
        return Action::compute(cfg_.t.vi_pre_close, "comp");
      case Phase::fchown_fd:
        // Defended variant: bind the ownership change to the fd's inode.
        phase_ = Phase::close;
        return Action::service(
            fs::fchown_op(open_out_.fd, cfg_.owner_uid, cfg_.owner_gid));
      case Phase::close:
        if (cfg_.fd_attr_remedy) {
          if (auto a = retry_eintr(err_, Phase::fchown_fd)) return std::move(*a);
        }
        // close(2) is never retried on EINTR: the fd state is unspecified
        // and a retry could close an unrelated descriptor (POSIX).
        phase_ = cfg_.fd_attr_remedy ? Phase::done : Phase::pre_chown;
        return Action::service(fs::close_op(open_out_.fd));
      case Phase::pre_chown:
        phase_ = Phase::chown;
        return Action::compute(cfg_.t.vi_pre_chown, "comp");
      case Phase::chown:
        phase_ = Phase::chown_ret;
        return Action::service(
            fs::chown_op(cfg_.wfname, cfg_.owner_uid, cfg_.owner_gid));
      case Phase::chown_ret:
        if (auto a = retry_eintr(err_, Phase::chown)) return std::move(*a);
        phase_ = Phase::done;
        return Action::exit_proc();
      case Phase::done:
        return Action::exit_proc();
    }
    return Action::exit_proc();
  }
}

// ---------------------------------------------------------------------------
// gedit
// ---------------------------------------------------------------------------

GeditVictim::GeditVictim(GeditVictimConfig cfg) : cfg_(std::move(cfg)) {}

void GeditVictim::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::load_read) {
    load_out_ = {r.fd, r.err};
  } else if (phase_ == Phase::open_ret) {
    open_out_ = {r.fd, r.err};
  } else {
    err_ = r.err;  // every other call returns only an errno
  }
}

std::optional<Action> GeditVictim::retry_eintr(Errno e, Phase redo) {
  const auto backoff = cfg_.t.retry.retry_after(e, attempt_, retries_);
  if (!backoff) return std::nullopt;
  phase_ = redo;
  return Action::sleep_for(*backoff);
}

Action GeditVictim::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  for (;;) {
    switch (phase_) {
      case Phase::load_open:
        phase_ = Phase::load_read;
        return Action::service(
            fs::open_op(cfg_.real_filename, fs::OpenFlags::read_only(), 0));
      case Phase::load_read:
        phase_ = Phase::load_close;
        if (load_out_.fd < 0) continue;
        return Action::service(
            fs::read_op(load_out_.fd, cfg_.file_bytes));
      case Phase::load_close:
        phase_ = Phase::think;
        if (load_out_.fd >= 0) {
          return Action::service(fs::close_op(load_out_.fd));
        }
        continue;
      case Phase::think:
        phase_ = Phase::prep;
        if (cfg_.think_time > Duration::zero()) {
          return Action::compute(cfg_.think_time, "edit");
        }
        [[fallthrough]];
      case Phase::prep:
        phase_ = Phase::open_temp;
        return Action::compute(cfg_.t.gedit_prep, "comp");
      case Phase::open_temp: {
        phase_ = Phase::open_ret;
        fs::OpenFlags flags = fs::OpenFlags::write_create_trunc();
        flags.excl = true;  // mkstemp-style: the scratch name is fresh
        return Action::service(
            fs::open_op(cfg_.temp_filename, flags, 0600));
      }
      case Phase::open_ret:
        if (auto a = retry_eintr(open_out_.err, Phase::open_temp)) {
          return std::move(*a);
        }
        phase_ = Phase::write_chunk;
        continue;
      case Phase::write_chunk: {
        if (open_out_.fd < 0) {
          phase_ = Phase::done;
          return Action::exit_proc();
        }
        if (written_ >= cfg_.file_bytes) {
          phase_ = cfg_.fd_attr_remedy ? Phase::fchmod_fd : Phase::close_temp;
          continue;
        }
        // As in ViVictim: commit to written_ only after the write succeeds.
        pending_chunk_ =
            std::min<std::uint64_t>(cfg_.t.gedit_write_chunk_bytes,
                                    cfg_.file_bytes - written_);
        phase_ = Phase::between_chunks;
        return Action::service(fs::write_op(open_out_.fd, pending_chunk_));
      }
      case Phase::between_chunks:
        if (auto a = retry_eintr(err_, Phase::write_chunk)) return std::move(*a);
        written_ += pending_chunk_;
        pending_chunk_ = 0;
        phase_ = Phase::write_chunk;
        if (cfg_.t.gedit_between_chunks > Duration::zero() &&
            written_ < cfg_.file_bytes) {
          return Action::compute(cfg_.t.gedit_between_chunks, "comp");
        }
        continue;
      case Phase::fchmod_fd:
        phase_ = Phase::fchown_fd;
        return Action::service(
            fs::fchmod_op(open_out_.fd, cfg_.owner_mode));
      case Phase::fchown_fd:
        if (auto a = retry_eintr(err_, Phase::fchmod_fd)) return std::move(*a);
        phase_ = Phase::close_temp;
        return Action::service(
            fs::fchown_op(open_out_.fd, cfg_.owner_uid, cfg_.owner_gid));
      case Phase::close_temp:
        if (cfg_.fd_attr_remedy) {
          if (auto a = retry_eintr(err_, Phase::fchown_fd)) return std::move(*a);
        }
        // close(2) is never retried on EINTR (fd state unspecified).
        phase_ = Phase::pre_backup;
        return Action::service(fs::close_op(open_out_.fd));
      case Phase::pre_backup:
        phase_ = Phase::backup;
        return Action::compute(cfg_.t.gedit_pre_backup, "comp");
      case Phase::backup:
        phase_ = Phase::pre_rename;
        return Action::service(
            fs::rename_op(cfg_.real_filename, cfg_.backup_name));
      case Phase::pre_rename:
        if (auto a = retry_eintr(err_, Phase::backup)) return std::move(*a);
        phase_ = Phase::rename;
        return Action::compute(cfg_.t.gedit_pre_rename, "comp");
      case Phase::rename:
        phase_ = Phase::rename_ret;
        return Action::service(
            fs::rename_op(cfg_.temp_filename, cfg_.real_filename));
      case Phase::rename_ret:
        if (auto a = retry_eintr(err_, Phase::rename)) return std::move(*a);
        phase_ = cfg_.fd_attr_remedy ? Phase::done : Phase::comp_gap;
        continue;
      case Phase::comp_gap:
        // The decisive gap: 43us on the SMP Xeon, 3us on the multi-core.
        phase_ = Phase::chmod;
        return Action::compute(cfg_.t.gedit_comp_gap, "comp");
      case Phase::chmod:
        phase_ = Phase::chmod_chown_gap;
        return Action::service(
            fs::chmod_op(cfg_.real_filename, cfg_.owner_mode));
      case Phase::chmod_chown_gap:
        if (auto a = retry_eintr(err_, Phase::chmod)) return std::move(*a);
        phase_ = Phase::chown;
        if (cfg_.t.gedit_chmod_chown_gap > Duration::zero()) {
          return Action::compute(cfg_.t.gedit_chmod_chown_gap, "comp");
        }
        continue;
      case Phase::chown:
        phase_ = Phase::chown_ret;
        return Action::service(
            fs::chown_op(cfg_.real_filename, cfg_.owner_uid, cfg_.owner_gid));
      case Phase::chown_ret:
        if (auto a = retry_eintr(err_, Phase::chown)) return std::move(*a);
        phase_ = Phase::done;
        return Action::exit_proc();
      case Phase::done:
        return Action::exit_proc();
    }
    return Action::exit_proc();
  }
}

// ---------------------------------------------------------------------------
// SuspendingVictim (rpm-style upper bound)
// ---------------------------------------------------------------------------

SuspendingVictim::SuspendingVictim(SuspendingVictimConfig cfg)
    : cfg_(std::move(cfg)), backup_(std::string(cfg_.path.str()) + ".bak") {}

void SuspendingVictim::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::io) {
    open_out_ = {r.fd, r.err};
  } else {
    err_ = r.err;
  }
}

Action SuspendingVictim::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  switch (phase_) {
    case Phase::think:
      phase_ = Phase::rename_away;
      if (cfg_.think_time > Duration::zero()) {
        return Action::compute(cfg_.think_time, "work");
      }
      [[fallthrough]];
    case Phase::rename_away:
      // Like vi: move the old file aside so the open() below creates a
      // fresh (root-owned) inode under the watched name.
      phase_ = Phase::check;
      return Action::service(fs::rename_op(cfg_.path, backup_));
    case Phase::check:
      phase_ = Phase::io;
      return Action::service(fs::open_op(
          cfg_.path, fs::OpenFlags::write_create_trunc(), 0644));
    case Phase::io:
      // The window contains blocking I/O: on a uniprocessor the attacker
      // is all but guaranteed the CPU here (P(victim suspended) ~ 1).
      phase_ = Phase::close;
      return Action::sleep_for(cfg_.io_time);
    case Phase::close:
      if (open_out_.fd < 0) {
        phase_ = Phase::done;
        return Action::exit_proc();
      }
      phase_ = Phase::use;
      return Action::service(fs::close_op(open_out_.fd));
    case Phase::use:
      phase_ = Phase::done;
      return Action::service(
          fs::chown_op(cfg_.path, cfg_.owner_uid, cfg_.owner_gid));
    case Phase::done:
      return Action::exit_proc();
  }
  return Action::exit_proc();
}

// ---------------------------------------------------------------------------
// SendmailVictim
// ---------------------------------------------------------------------------

SendmailVictim::SendmailVictim(SendmailVictimConfig cfg)
    : cfg_(std::move(cfg)) {}

void SendmailVictim::take(const sim::SyscallResult& r) {
  if (phase_ == Phase::write) {
    open_out_ = {r.fd, r.err};
    return;
  }
  err_ = r.err;
  if (phase_ == Phase::gap && r.err == Errno::ok) stat_out_ = r.stat;
}

Action SendmailVictim::next(ProgramContext& ctx) {
  if (ctx.has_result()) take(ctx.result());
  switch (phase_) {
    case Phase::think:
      phase_ = Phase::check;
      if (cfg_.think_time > Duration::zero()) {
        return Action::compute(cfg_.think_time, "queue");
      }
      [[fallthrough]];
    case Phase::check:
      phase_ = Phase::gap;
      return Action::service(fs::lstat_op(cfg_.mailbox));
    case Phase::gap:
      if (err_ != Errno::ok || stat_out_.is_symlink()) {
        rejected_ = true;  // the check did its job
        phase_ = Phase::done;
        return Action::exit_proc();
      }
      phase_ = Phase::open;
      return Action::compute(cfg_.check_use_gap, "comp");
    case Phase::open: {
      phase_ = Phase::write;
      fs::OpenFlags flags;
      flags.write = true;  // append; follows a symlink if one appeared
      return Action::service(fs::open_op(cfg_.mailbox, flags, 0));
    }
    case Phase::write:
      if (open_out_.fd < 0) {
        phase_ = Phase::done;
        return Action::exit_proc();
      }
      phase_ = Phase::close;
      return Action::service(
          fs::write_op(open_out_.fd, cfg_.message_bytes));
    case Phase::close:
      phase_ = Phase::done;
      return Action::service(fs::close_op(open_out_.fd));
    case Phase::done:
      return Action::exit_proc();
  }
  return Action::exit_proc();
}

}  // namespace tocttou::programs
