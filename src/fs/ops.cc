// ServiceOp implementations for every modeled syscall.
//
// Each op is a small state machine driven by Kernel::advance_service; see
// include/tocttou/sim/service.h for the step protocol and DESIGN.md §4
// for which operation holds which semaphore. Every op, and the walker
// inside it, names its members once in a field list (sim/fields.h), from
// which its state digest is derived. An op holds its operands and phase
// only: it reaches the Vfs through its context and writes its result
// into the context's result record, so its clone is a plain copy.
//
// What the ops share is said once, in two bases. FsOp (the path-taking
// ops) holds the path, its walker, the phase, a failed call's errno with
// the one failure exit (fail() releases the held directory semaphore and
// returns the errno from a shared last phase), and the inode the call
// applied to, which its fill_record journals; FdOp holds the fd, the
// phase and the applied inode. One op, AttrOp, is the attribute lock
// rule for chmod, chown, fchmod and fchown alike.
//
// Paths are shared Paths (common/path.h): a factory moves its argument
// into the op, the walker copies the op's handle, a symlink follow
// copies the link inode's, and the final name a walk finds is a
// component of the walked Path. So the only allocation a path-taking
// syscall makes is its op, and its walk reads the component count and
// spans parsed when the program built the Path.
#include <optional>

#include "tocttou/fs/ops.h"

#include "tocttou/fs/vfs.h"
#include "tocttou/metrics/metrics.h"
#include "tocttou/sim/fields.h"
#include "tocttou/sim/kernel.h"
#include "tocttou/trace/journal.h"

namespace tocttou::fs {

namespace {

using sim::Listed;
using sim::ServiceContext;
using sim::ServiceOp;
using sim::Step;

// libc page ids: which syscall wrappers share a physical page of libc.
// unlink and symlink share one — the paper observed they "seem to be on
// the same page" (Section 6.2.2), which is why pre-faulting unlink also
// pre-faults symlink in attack program v2.
enum LibcPage {
  kPageStat = 1,
  kPageOpenClose = 2,
  kPageReadWrite = 3,
  kPageUnlinkSymlink = 4,
  kPageRename = 5,
  kPageChmodChown = 6,
  kPageMisc = 7,
};

Creds creds_of(const ServiceContext& ctx) {
  return Creds{ctx.proc.uid(), ctx.proc.gid()};
}

/// The final name a prefix walk found: the last component of the walked
/// path, through a handle to that Path ("" before any walk succeeds). A
/// restart through a symlink walks a new path and keeps the old name
/// until that walk succeeds. Hashed as the name's text (sim/fields.h).
class FinalName {
 public:
  FinalName() = default;
  explicit FinalName(Path walked) : walked_(std::move(walked)) {}

  std::string_view str() const {
    return walked_.empty() ? std::string_view() : walked_.back();
  }

 private:
  Path walked_;
};

/// Path resolution driver shared by all ops.
///
/// Policy `hold`: the final directory's semaphore is acquired and LEFT
/// HELD when resolution completes; the op must release held_dir_sem(ctx).
/// Policy `lockless_if_free`: the fast path reads the directory without
/// the semaphore when it is free; when a writer holds it the walk takes
/// the slow path (acquire, look up, pay stat_locked_tail, release) — this
/// is what makes a concurrent stat() block behind rename() and detect the
/// window "at the first moment" (Figure 10).
class Walker {
 public:
  enum class SemPolicy { lockless_if_free, hold };
  enum class Follow { yes, no };

  Walker(Path path, SemPolicy policy, Follow follow)
      : path_(std::move(path)), policy_(policy), follow_(follow) {}

  static auto fields(auto& self) {
    return std::tie(self.path_, self.policy_, self.follow_,
                    self.st_, self.depth_, self.err_, self.parent_,
                    self.final_name_, self.target_, self.snapshot_,
                    self.held_, self.slow_path_);
  }

  /// Returns the next step to execute, or nullopt when resolution is done.
  std::optional<Step> advance(ServiceContext& ctx);

  Errno error() const { return err_; }  // prefix/symlink errors; ok otherwise
  Ino parent() const { return parent_; }
  std::string_view final_name() const { return final_name_.str(); }
  Ino target() const { return target_; }
  bool target_exists() const { return target_ != kNoIno; }
  const StatBuf& snapshot() const { return snapshot_; }
  /// The final directory's semaphore once a `hold` walk has left it
  /// held for the op, for the op to release; null before that. Reached
  /// through the directory's inode number, so a checkpoint copies no
  /// pointer into an inode.
  sim::Semaphore* held_dir_sem(ServiceContext& ctx) const {
    return held_ ? &ctx.vfs().inode_mut(parent_).sem() : nullptr;
  }
  bool took_slow_path() const { return slow_path_; }

 private:
  enum class St {
    init,          // compute prefix cost
    prefix_done,   // prefix work charged; do the real walk + final policy
    locked,        // final dir semaphore acquired; look up
    locked_tail,   // lockless slow path: paid stat_locked_tail; release
    release_then_restart,  // symlink follow: sem released; restart
    done,
  };

  // Takes the final component's inode, just looked up in parent_, and
  // snapshots it; returns true if the walk must restart through a link.
  bool take_final(const Vfs& vfs, Ino target);

  Path path_;  // this leg's path: the op's, then each link target's
  SemPolicy policy_;
  Follow follow_;
  St st_ = St::init;
  int depth_ = 0;
  Errno err_ = Errno::ok;
  Ino parent_ = kNoIno;
  FinalName final_name_;
  Ino target_ = kNoIno;
  StatBuf snapshot_;
  bool held_ = false;  // a hold walk left parent_'s semaphore to the op
  bool slow_path_ = false;
};

bool Walker::take_final(const Vfs& vfs, Ino target) {
  target_ = target;
  if (target_ != kNoIno) {
    const Inode& t = vfs.inode(target_);
    snapshot_ = t.to_stat();
    if (t.is_symlink() && follow_ == Follow::yes) {
      path_ = t.symlink_target();
      ++depth_;
      return true;  // restart through the link
    }
  }
  return false;
}

std::optional<Step> Walker::advance(ServiceContext& ctx) {
  Vfs& vfs = ctx.vfs();
  while (true) {
    switch (st_) {
      case St::init: {
        if (depth_ > Vfs::kMaxSymlinkDepth) {
          err_ = Errno::eloop;
          st_ = St::done;
          return std::nullopt;
        }
        if (!path_.absolute()) {
          err_ = Errno::einval;
          st_ = St::done;
          return std::nullopt;
        }
        st_ = St::prefix_done;
        const std::size_t n = path_.size();
        if (n == 0) {
          err_ = Errno::einval;
          st_ = St::done;
          return std::nullopt;
        }
        if (metrics::Registry* m = ctx.kernel.metrics()) {
          // One observation per resolution leg; symlink restarts show up
          // as extra legs, which is exactly the work the walk performs.
          m->observe("fs.path_walk_components",
                     static_cast<std::int64_t>(n));
          if (depth_ > 0) m->count("fs.symlink_restarts");
        }
        return Step::work(vfs.costs().path_component *
                          static_cast<std::int64_t>(n));
      }
      case St::prefix_done: {
        auto walk = vfs.walk_prefix(path_);
        if (walk.err != Errno::ok) {
          err_ = walk.err;
          st_ = St::done;
          return std::nullopt;
        }
        parent_ = walk.parent;
        final_name_ = FinalName(std::move(walk.path));
        if (policy_ == SemPolicy::hold) {
          st_ = St::locked;
          return Step::acquire(&vfs.inode_mut(parent_).sem());
        }
        // dcache semantics for lockless (RCU-style) lookups:
        //  * a directory being renamed-into forces the slow path (the
        //    rename seqlock would make the walk retry);
        //  * a positive entry can be read locklessly even while a writer
        //    holds the semaphore (the dentry stays valid until the
        //    writer's commit point);
        //  * a negative result is only trustworthy when no writer holds
        //    the semaphore — otherwise take the slow path and wait.
        // Read-only: a lockless walk leaves a shared directory shared.
        const Inode& parent_inode = vfs.inode(parent_);
        const bool must_block =
            parent_inode.rename_in_progress() ||
            (parent_inode.sem().held() && walk.target == kNoIno);
        if (!must_block) {
          if (take_final(vfs, walk.target)) {
            st_ = St::init;
            continue;
          }
          st_ = St::done;
          return std::nullopt;
        }
        slow_path_ = true;
        if (metrics::Registry* m = ctx.kernel.metrics()) {
          m->count("fs.lockless_slow_paths");
        }
        st_ = St::locked;
        return Step::acquire(&vfs.inode_mut(parent_).sem());
      }
      case St::locked: {
        // Look up again: the semaphore's last holder may have changed it.
        const bool restart =
            take_final(vfs, vfs.lookup_in(parent_, final_name_.str()));
        if (policy_ == SemPolicy::lockless_if_free) {
          st_ = restart ? St::release_then_restart : St::locked_tail;
          return Step::work(vfs.costs().stat_locked_tail);
        }
        if (restart) {
          st_ = St::init;
          return Step::release(&vfs.inode_mut(parent_).sem());
        }
        held_ = true;  // caller releases
        st_ = St::done;
        return std::nullopt;
      }
      case St::locked_tail: {
        st_ = St::done;
        return Step::release(&vfs.inode_mut(parent_).sem());
      }
      case St::release_then_restart: {
        st_ = St::init;
        return Step::release(&vfs.inode_mut(parent_).sem());
      }
      case St::done:
        return std::nullopt;
    }
  }
}

/// Base of the path-taking ops: the path, its walker, the phase counter
/// every such op steps through, the errno a failed call returns and the
/// inode the call applied to, which its journal record names.
class FsOp : public ServiceOp {
 public:
  explicit FsOp(Path path) : path_(std::move(path)) {}

  static auto fields(auto& self) {
    return std::tie(self.path_, self.walker_, self.phase_, self.err_,
                    self.applied_);
  }

  std::string_view path() const override { return path_.str(); }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (applied_ != kNoIno) rec.applied_ino = applied_;
  }

 protected:
  /// The phase a failed call ends in: past every op's last phase, so
  /// each op's default case returns err_ from it.
  static constexpr int kFailed = 99;

  /// Starts (on first call) and advances the walk of path_; nullopt once
  /// the walk is done.
  std::optional<Step> walk(ServiceContext& ctx, Walker::SemPolicy policy,
                           Walker::Follow follow) {
    if (!walker_) walker_.emplace(path_, policy, follow);
    return walker_->advance(ctx);
  }

  /// Fails the call with `e`: releases the directory semaphore that the
  /// hold walk `w` left held, then returns `e` from kFailed.
  Step fail(ServiceContext& ctx, Errno e, const Walker& w) {
    err_ = e;
    phase_ = kFailed;
    return Step::release(w.held_dir_sem(ctx));
  }

  Path path_;
  std::optional<Walker> walker_;
  int phase_ = 0;
  Errno err_ = Errno::ok;
  Ino applied_ = kNoIno;
};

/// Base of the fd-based ops (no path resolution: immune to name
/// redirection): the fd, the phase counter and the inode the call
/// applied to.
class FdOp : public ServiceOp {
 public:
  explicit FdOp(int fd) : fd_(fd) {}

  static auto fields(auto& self) {
    return std::tie(self.fd_, self.phase_, self.applied_);
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (applied_ != kNoIno) rec.applied_ino = applied_;
  }

 protected:
  int fd_;
  int phase_ = 0;
  Ino applied_ = kNoIno;
};

// ---------------------------------------------------------------------------
// stat / lstat / access
// ---------------------------------------------------------------------------

class StatOp final : public Listed<StatOp, FsOp> {
 public:
  StatOp(Path path, bool follow) : Listed(std::move(path)), follow_(follow) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self), std::tie(self.follow_));
  }

  std::string_view name() const override { return follow_ ? "stat" : "lstat"; }
  int libc_page() const override { return kPageStat; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          follow_ ? Walker::Follow::yes : Walker::Follow::no)) {
          return *s;
        }
        phase_ = 1;
        return Step::work(vfs.costs().stat_base);
      }
      default: {
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (!walker_->target_exists()) return Step::done(Errno::enoent);
        ctx.result.stat = walker_->snapshot();
        return Step::done(Errno::ok);
      }
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (rec.result == Errno::ok) {
      const auto& s = walker_->snapshot();
      rec.st_uid = s.uid;
      rec.st_gid = s.gid;
      rec.st_ino = s.ino;
    }
  }

 private:
  bool follow_;
};

class AccessOp final : public Listed<AccessOp, FsOp> {
 public:
  using Listed::Listed;

  static auto fields(auto& self) { return FsOp::fields(self); }

  std::string_view name() const override { return "access"; }
  int libc_page() const override { return kPageStat; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          Walker::Follow::yes)) {
          return *s;
        }
        phase_ = 1;
        return Step::work(vfs.costs().access_base);
      }
      default: {
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (!walker_->target_exists()) return Step::done(Errno::enoent);
        const Inode& t = vfs.inode(walker_->target());
        return Step::done(Vfs::may_read(t, creds_of(ctx)) ? Errno::ok
                                                          : Errno::eacces);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// open / close / read / write
// ---------------------------------------------------------------------------

class OpenOp final : public Listed<OpenOp, FsOp> {
 public:
  OpenOp(Path path, OpenFlags flags, Mode mode)
      : Listed(std::move(path)), flags_(flags), mode_(mode) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.flags_, self.mode_));
  }

  std::string_view name() const override { return "open"; }
  int libc_page() const override { return kPageOpenClose; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {  // resolve, holding the directory semaphore
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::yes)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (walker_->target_exists()) {
          const Inode& t = vfs.inode(walker_->target());
          if (flags_.create && flags_.excl) {
            return fail(ctx, Errno::eexist, *walker_);
          }
          if (t.is_dir() && flags_.write) {
            return fail(ctx, Errno::eisdir, *walker_);
          }
          const auto creds = creds_of(ctx);
          const bool perm = flags_.write ? Vfs::may_write(t, creds)
                                         : Vfs::may_read(t, creds);
          if (!perm) return fail(ctx, Errno::eacces, *walker_);
          applied_ = walker_->target();
          if (flags_.truncate && flags_.write) {
            vfs.inode_mut(applied_).set_size_bytes(0);
          }
          phase_ = 2;
          return Step::release(walker_->held_dir_sem(ctx));
        }
        if (!flags_.create) return fail(ctx, Errno::enoent, *walker_);
        if (!Vfs::may_write(vfs.inode(walker_->parent()), creds_of(ctx))) {
          return fail(ctx, Errno::eacces, *walker_);
        }
        phase_ = 1;
        return Step::work(vfs.costs().create_extra);
      }
      case 1: {  // commit the newly created inode (still under the sem)
        Inode& n = vfs.alloc_inode(FileType::regular, ctx.proc.uid(),
                                   ctx.proc.gid(), mode_);
        applied_ = n.ino();
        vfs.link_entry(walker_->parent(), walker_->final_name(), applied_);
        phase_ = 2;
        return Step::release(walker_->held_dir_sem(ctx));
      }
      case 2: {  // fd setup after releasing the namespace lock
        phase_ = 3;
        return Step::work(vfs.costs().open_base);
      }
      case 3: {
        ctx.result.fd = vfs.fd_alloc(ctx.proc.pid(), applied_, flags_);
        return Step::done(Errno::ok);
      }
      default:  // failed; the semaphore is already released
        return Step::done(err_);
    }
  }

 private:
  OpenFlags flags_;
  Mode mode_;
};

class CloseOp final : public Listed<CloseOp, FdOp> {
 public:
  using Listed::Listed;

  static auto fields(auto& self) { return FdOp::fields(self); }

  std::string_view name() const override { return "close"; }
  int libc_page() const override { return kPageOpenClose; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    if (phase_ == 0) {
      phase_ = 1;
      return Step::work(vfs.costs().close_base);
    }
    return Step::done(vfs.fd_close(ctx.proc.pid(), fd_));
  }
};

class WriteOp final : public Listed<WriteOp, FdOp> {
 public:
  WriteOp(int fd, std::uint64_t bytes) : Listed(fd), bytes_(bytes) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FdOp::fields(self), std::tie(self.bytes_));
  }

  std::string_view name() const override { return "write"; }
  int libc_page() const override { return kPageReadWrite; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        const auto f = vfs.fd_get(ctx.proc.pid(), fd_);
        if (!f.ok() || !f.value().flags.write) return Step::done(Errno::ebadf);
        applied_ = f.value().ino;
        phase_ = 1;
        return Step::acquire(&vfs.inode_mut(applied_).sem());
      }
      case 1: {
        phase_ = 2;
        const double kb = static_cast<double>(bytes_) / 1024.0;
        return Step::work(vfs.costs().write_base +
                          vfs.costs().write_per_kb * kb);
      }
      case 2: {
        vfs.inode_mut(applied_).add_size_bytes(bytes_);
        phase_ = 3;
        return Step::release(&vfs.inode_mut(applied_).sem());
      }
      case 3: {
        phase_ = 4;
        // Page-cache writeback throttling: occasionally the writer is put
        // to sleep on the device — a uniprocessor suspension source.
        if (ctx.rng.bernoulli(vfs.costs().writeback_stall_prob)) {
          return Step::block_io(ctx.rng.normal_duration(
              vfs.costs().writeback_stall_mean,
              vfs.costs().writeback_stall_stdev, Duration::micros(200)));
        }
        return Step::done(Errno::ok);
      }
      default:
        return Step::done(Errno::ok);
    }
  }

 private:
  std::uint64_t bytes_;
};

class ReadOp final : public Listed<ReadOp, FdOp> {
 public:
  ReadOp(int fd, std::uint64_t bytes) : Listed(fd), bytes_(bytes) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FdOp::fields(self), std::tie(self.bytes_));
  }

  std::string_view name() const override { return "read"; }
  int libc_page() const override { return kPageReadWrite; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    if (phase_ == 0) {
      const auto f = vfs.fd_get(ctx.proc.pid(), fd_);
      if (!f.ok()) return Step::done(Errno::ebadf);
      phase_ = 1;
      const double kb = static_cast<double>(bytes_) / 1024.0;
      return Step::work(vfs.costs().read_base +
                        vfs.costs().read_per_kb * kb);
    }
    return Step::done(Errno::ok);
  }

 private:
  std::uint64_t bytes_;
};

// ---------------------------------------------------------------------------
// rename / unlink / symlink / mkdir / readlink / link
// ---------------------------------------------------------------------------

class RenameOp final : public Listed<RenameOp, FsOp> {
 public:
  RenameOp(Path oldpath, Path newpath)
      : Listed(std::move(oldpath)), newpath_(std::move(newpath)) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.newpath_, self.new_final_));
  }

  std::string_view name() const override { return "rename"; }
  std::string_view path2() const override { return newpath_.str(); }
  int libc_page() const override { return kPageRename; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (!walker_->target_exists()) {
          return fail(ctx, Errno::enoent, *walker_);
        }
        auto nw = vfs.walk_prefix(newpath_);
        if (nw.err != Errno::ok) return fail(ctx, nw.err, *walker_);
        if (nw.parent != walker_->parent()) {
          return fail(ctx, Errno::exdev, *walker_);
        }
        new_final_ = FinalName(std::move(nw.path));
        if (new_final_.str() == walker_->final_name()) {
          return fail(ctx, Errno::einval, *walker_);
        }
        if (!Vfs::may_write(vfs.inode(walker_->parent()), creds_of(ctx))) {
          return fail(ctx, Errno::eacces, *walker_);
        }
        // Models the rename seqlock: lockless lookups in this directory
        // take the slow path until the commit.
        vfs.inode_mut(walker_->parent()).set_rename_in_progress(true);
        phase_ = 1;
        return Step::work(vfs.costs().rename_work);
      }
      case 1: {  // commit point, still under the directory semaphore
        const Ino dir = walker_->parent();
        const Ino tgt = walker_->target();
        vfs.unlink_entry(dir, walker_->final_name());
        if (vfs.lookup_in(dir, new_final_.str()) != kNoIno) {
          vfs.unlink_entry(dir, new_final_.str());
        }
        vfs.link_entry(dir, new_final_.str(), tgt);
        applied_ = tgt;
        vfs.inode_mut(dir).set_rename_in_progress(false);
        phase_ = 2;
        return Step::release(walker_->held_dir_sem(ctx));
      }
      case 2: {
        phase_ = 3;
        return Step::work(vfs.costs().rename_tail);
      }
      default:
        return Step::done(err_);
    }
  }

 private:
  Path newpath_;
  FinalName new_final_;
};

class UnlinkOp final : public Listed<UnlinkOp, FsOp> {
 public:
  using Listed::Listed;

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self), std::tie(self.truncating_));
  }

  std::string_view name() const override { return "unlink"; }
  int libc_page() const override { return kPageUnlinkSymlink; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (!walker_->target_exists()) {
          return fail(ctx, Errno::enoent, *walker_);
        }
        applied_ = walker_->target();
        if (vfs.inode(applied_).is_dir()) {
          return fail(ctx, Errno::eisdir, *walker_);
        }
        if (!Vfs::may_write(vfs.inode(walker_->parent()), creds_of(ctx))) {
          return fail(ctx, Errno::eacces, *walker_);
        }
        phase_ = 1;
        // Lock order everywhere: directory sem, then target inode sem.
        return Step::acquire(&vfs.inode_mut(applied_).sem());
      }
      case 1: {
        phase_ = 2;
        return Step::work(vfs.costs().unlink_detach);
      }
      case 2: {  // detach commit: the name disappears from the directory
        vfs.unlink_entry(walker_->parent(), walker_->final_name());
        phase_ = 3;
        return Step::release(walker_->held_dir_sem(ctx));
      }
      case 3: {  // physical truncate happens after the dir sem is free —
                 // this is what lets a parallel symlink overlap (Sec. 7).
        phase_ = 4;
        const Inode& n = vfs.inode(applied_);
        // Orphans with open fds keep their data (vi keeps writing through
        // its fd after the attacker's unlink); truncate only when fully
        // unreferenced.
        truncating_ =
            n.nlink() == 0 && n.open_refs() == 0 && n.size_bytes() > 0;
        if (truncating_) {
          const double kb = static_cast<double>(n.size_bytes()) / 1024.0;
          return Step::work(vfs.costs().truncate_per_kb * kb);
        }
        return advance(ctx);
      }
      case 4: {
        if (truncating_) vfs.inode_mut(applied_).set_size_bytes(0);
        phase_ = 5;
        return Step::release(&vfs.inode_mut(applied_).sem());
      }
      default:
        return Step::done(err_);
    }
  }

 private:
  bool truncating_ = false;
};

class SymlinkOp final : public Listed<SymlinkOp, FsOp> {
 public:
  SymlinkOp(Path target, Path linkpath)
      : Listed(std::move(linkpath)), target_(std::move(target)) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self), std::tie(self.target_));
  }

  std::string_view name() const override { return "symlink"; }
  std::string_view path2() const override { return target_.str(); }
  int libc_page() const override { return kPageUnlinkSymlink; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (walker_->target_exists()) {
          return fail(ctx, Errno::eexist, *walker_);
        }
        if (!Vfs::may_write(vfs.inode(walker_->parent()), creds_of(ctx))) {
          return fail(ctx, Errno::eacces, *walker_);
        }
        phase_ = 1;
        return Step::work(vfs.costs().symlink_base);
      }
      case 1: {  // commit
        Inode& n = vfs.alloc_inode(FileType::symlink, ctx.proc.uid(),
                                   ctx.proc.gid(), 0777);
        n.set_symlink_target(target_);
        vfs.link_entry(walker_->parent(), walker_->final_name(), n.ino());
        applied_ = n.ino();
        phase_ = 2;
        return Step::release(walker_->held_dir_sem(ctx));
      }
      default:
        return Step::done(err_);
    }
  }

 private:
  Path target_;
};

class MkdirOp final : public Listed<MkdirOp, FsOp> {
 public:
  MkdirOp(Path path, Mode mode) : Listed(std::move(path)), mode_(mode) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self), std::tie(self.mode_));
  }

  std::string_view name() const override { return "mkdir"; }
  int libc_page() const override { return kPageMisc; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (walker_->target_exists()) {
          return fail(ctx, Errno::eexist, *walker_);
        }
        if (!Vfs::may_write(vfs.inode(walker_->parent()), creds_of(ctx))) {
          return fail(ctx, Errno::eacces, *walker_);
        }
        phase_ = 1;
        return Step::work(vfs.costs().mkdir_base);
      }
      case 1: {
        Inode& n = vfs.alloc_inode(FileType::directory, ctx.proc.uid(),
                                   ctx.proc.gid(), mode_);
        vfs.link_entry(walker_->parent(), walker_->final_name(), n.ino());
        phase_ = 2;
        return Step::release(walker_->held_dir_sem(ctx));
      }
      default:
        return Step::done(err_);
    }
  }

 private:
  Mode mode_;
};

class ReadlinkOp final : public Listed<ReadlinkOp, FsOp> {
 public:
  using Listed::Listed;

  static auto fields(auto& self) { return FsOp::fields(self); }

  std::string_view name() const override { return "readlink"; }
  int libc_page() const override { return kPageMisc; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          Walker::Follow::no)) {
          return *s;
        }
        phase_ = 1;
        return Step::work(vfs.costs().readlink_base);
      }
      default: {
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (!walker_->target_exists()) return Step::done(Errno::enoent);
        const Inode& t = vfs.inode(walker_->target());
        if (!t.is_symlink()) return Step::done(Errno::einval);
        ctx.result.link = t.symlink_target();
        return Step::done(Errno::ok);
      }
    }
  }
};

class LinkOp final : public Listed<LinkOp, FsOp> {
 public:
  LinkOp(Path oldpath, Path newpath)
      : Listed(std::move(oldpath)), newpath_(std::move(newpath)) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.newpath_, self.new_walker_));
  }

  std::string_view name() const override { return "link"; }
  std::string_view path2() const override { return newpath_.str(); }
  int libc_page() const override { return kPageUnlinkSymlink; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {  // resolve the existing file (no symlink follow, as link(2))
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return Step::done(walker_->error());
        if (!walker_->target_exists()) return Step::done(Errno::enoent);
        if (vfs.inode(walker_->target()).is_dir()) {
          return Step::done(Errno::eisdir);
        }
        applied_ = walker_->target();
        phase_ = 1;
        new_walker_.emplace(newpath_, Walker::SemPolicy::hold,
                            Walker::Follow::no);
        return advance(ctx);
      }
      case 1: {  // take the destination directory's semaphore
        if (auto s = new_walker_->advance(ctx)) return *s;
        if (new_walker_->error() != Errno::ok) {
          return Step::done(new_walker_->error());
        }
        if (new_walker_->target_exists()) {
          return fail(ctx, Errno::eexist, *new_walker_);
        }
        if (!Vfs::may_write(vfs.inode(new_walker_->parent()),
                            creds_of(ctx))) {
          return fail(ctx, Errno::eacces, *new_walker_);
        }
        phase_ = 2;
        return Step::work(vfs.costs().link_base);
      }
      case 2: {  // commit
        vfs.link_entry(new_walker_->parent(), new_walker_->final_name(),
                       applied_);
        phase_ = 3;
        return Step::release(new_walker_->held_dir_sem(ctx));
      }
      default:
        return Step::done(err_);
    }
  }

 private:
  Path newpath_;
  std::optional<Walker> new_walker_;
};

// ---------------------------------------------------------------------------
// fstat
// ---------------------------------------------------------------------------

class FstatOp final : public Listed<FstatOp, FdOp> {
 public:
  using Listed::Listed;

  static auto fields(auto& self) { return FdOp::fields(self); }

  std::string_view name() const override { return "fstat"; }
  int libc_page() const override { return kPageStat; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    if (phase_ == 0) {
      phase_ = 1;
      return Step::work(vfs.costs().stat_base);
    }
    const auto f = vfs.fd_get(ctx.proc.pid(), fd_);
    if (!f.ok()) return Step::done(Errno::ebadf);
    applied_ = f.value().ino;
    ctx.result.stat = vfs.inode(applied_).to_stat();
    return Step::done(Errno::ok);
  }
};

// ---------------------------------------------------------------------------
// chmod / chown / fchmod / fchown
// ---------------------------------------------------------------------------

/// The attribute calls, one lock rule: resolve the inode, then apply the
/// change under the TARGET INODE's semaphore. chmod and chown resolve
/// their path with a lockless dcache walk like stat's that follows
/// symlinks (the fatal behaviour the attacks exploit); fchmod and fchown
/// take the inode their fd was opened on, which no later rename or
/// symlink can redirect. The inode semaphore is the one the paper's
/// cascade runs through: an unlink holding it through detach+truncate
/// delays the victim's chmod, which in turn delays the chown past the
/// attacker's symlink (Section 6.1). As in POSIX, the change applies to
/// the inode resolved at lookup even if the name is unlinked while the
/// call waits.
class AttrOp final : public Listed<AttrOp, FsOp> {
 public:
  /// Names the inode by `path`, or by `fd` when one is given; changes its
  /// mode when `mode` is given, else its owner to `uid`/`gid`.
  AttrOp(Path path, std::optional<int> fd, std::optional<Mode> mode,
         sim::Uid uid = 0, sim::Gid gid = 0)
      : Listed(std::move(path)), fd_(fd), mode_(mode), uid_(uid), gid_(gid) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.fd_, self.mode_, self.uid_, self.gid_));
  }

  std::string_view name() const override {
    if (fd_) return mode_ ? "fchmod" : "fchown";
    return mode_ ? "chmod" : "chown";
  }
  int libc_page() const override { return kPageChmodChown; }

  Step advance(ServiceContext& ctx) override {
    Vfs& vfs = ctx.vfs();
    switch (phase_) {
      case 0: {
        if (fd_) {
          const auto f = vfs.fd_get(ctx.proc.pid(), *fd_);
          if (!f.ok()) return Step::done(Errno::ebadf);
          applied_ = f.value().ino;
        } else {
          if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                            Walker::Follow::yes)) {
            return *s;
          }
          if (walker_->error() != Errno::ok) {
            return Step::done(walker_->error());
          }
          if (!walker_->target_exists()) return Step::done(Errno::enoent);
          applied_ = walker_->target();
        }
        // Only root gives a file away; its owner may change its mode.
        const Creds c = creds_of(ctx);
        if (!c.is_root() &&
            !(mode_ && vfs.inode(applied_).uid() == c.uid)) {
          return Step::done(Errno::eperm);
        }
        phase_ = 1;
        return Step::acquire(&vfs.inode_mut(applied_).sem());
      }
      case 1: {
        phase_ = 2;
        return Step::work(mode_ ? vfs.costs().chmod_base
                                : vfs.costs().chown_base);
      }
      case 2: {  // commit
        Inode& t = vfs.inode_mut(applied_);
        if (mode_) {
          t.set_mode(*mode_);
        } else {
          t.set_owner(uid_, gid_);
        }
        phase_ = 3;
        return Step::release(&t.sem());
      }
      default:
        return Step::done(Errno::ok);
    }
  }

 private:
  std::optional<int> fd_;
  std::optional<Mode> mode_;
  sim::Uid uid_;
  sim::Gid gid_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<ServiceOp> stat_op(Path path) {
  return std::make_unique<StatOp>(std::move(path), true);
}

std::unique_ptr<ServiceOp> lstat_op(Path path) {
  return std::make_unique<StatOp>(std::move(path), false);
}

std::unique_ptr<ServiceOp> access_op(Path path) {
  return std::make_unique<AccessOp>(std::move(path));
}

std::unique_ptr<ServiceOp> open_op(Path path, OpenFlags flags, Mode mode) {
  return std::make_unique<OpenOp>(std::move(path), flags, mode);
}

std::unique_ptr<ServiceOp> rename_op(Path oldpath, Path newpath) {
  return std::make_unique<RenameOp>(std::move(oldpath), std::move(newpath));
}

std::unique_ptr<ServiceOp> unlink_op(Path path) {
  return std::make_unique<UnlinkOp>(std::move(path));
}

std::unique_ptr<ServiceOp> symlink_op(Path target, Path linkpath) {
  return std::make_unique<SymlinkOp>(std::move(target), std::move(linkpath));
}

std::unique_ptr<ServiceOp> chmod_op(Path path, Mode mode) {
  return std::make_unique<AttrOp>(std::move(path), std::nullopt, mode);
}

std::unique_ptr<ServiceOp> chown_op(Path path, sim::Uid uid, sim::Gid gid) {
  return std::make_unique<AttrOp>(std::move(path), std::nullopt, std::nullopt,
                                  uid, gid);
}

std::unique_ptr<ServiceOp> mkdir_op(Path path, Mode mode) {
  return std::make_unique<MkdirOp>(std::move(path), mode);
}

std::unique_ptr<ServiceOp> readlink_op(Path path) {
  return std::make_unique<ReadlinkOp>(std::move(path));
}

std::unique_ptr<ServiceOp> link_op(Path oldpath, Path newpath) {
  return std::make_unique<LinkOp>(std::move(oldpath), std::move(newpath));
}

std::unique_ptr<ServiceOp> close_op(int fd) {
  return std::make_unique<CloseOp>(fd);
}

std::unique_ptr<ServiceOp> write_op(int fd, std::uint64_t bytes) {
  return std::make_unique<WriteOp>(fd, bytes);
}

std::unique_ptr<ServiceOp> read_op(int fd, std::uint64_t bytes) {
  return std::make_unique<ReadOp>(fd, bytes);
}

std::unique_ptr<ServiceOp> fstat_op(int fd) {
  return std::make_unique<FstatOp>(fd);
}

std::unique_ptr<ServiceOp> fchmod_op(int fd, Mode mode) {
  return std::make_unique<AttrOp>(Path(), fd, mode);
}

std::unique_ptr<ServiceOp> fchown_op(int fd, sim::Uid uid, sim::Gid gid) {
  return std::make_unique<AttrOp>(Path(), fd, std::nullopt, uid, gid);
}

}  // namespace tocttou::fs
