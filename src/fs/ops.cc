// ServiceOp implementations for every modeled syscall.
//
// Each op is a small state machine driven by Kernel::advance_service; see
// include/tocttou/sim/service.h for the step protocol and DESIGN.md §4
// for which operation holds which semaphore. Every op, and the walker
// inside it, names its members once in a field list (sim/fields.h); the
// checkpoint clone and the state digest are derived from it.
//
// Paths are shared Paths (common/path.h): a factory moves its argument
// into the op, the walker copies the op's handle, a symlink follow
// copies the link inode's, and the final name a walk finds is a
// component of the walked Path. So the only allocation a path-taking
// syscall makes is its op, and its walk reads the component count and
// spans parsed when the program built the Path.
#include <optional>

#include "tocttou/fs/vfs.h"
#include "tocttou/metrics/metrics.h"
#include "tocttou/sim/clone.h"
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
/// HELD when resolution completes; the op must release held_dir_sem().
/// Policy `lockless_if_free`: the fast path reads the directory without
/// the semaphore when it is free; when a writer holds it the walk takes
/// the slow path (acquire, look up, pay stat_locked_tail, release) — this
/// is what makes a concurrent stat() block behind rename() and detect the
/// window "at the first moment" (Figure 10).
class Walker {
 public:
  enum class SemPolicy { lockless_if_free, hold };
  enum class Follow { yes, no };

  Walker(Vfs& vfs, Path path, SemPolicy policy, Follow follow)
      : vfs_(&vfs), path_(std::move(path)), policy_(policy), follow_(follow) {}

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.path_, self.policy_, self.follow_,
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
  sim::Semaphore* held_dir_sem() const {
    return held_ ? &vfs_->inode_mut(parent_).sem() : nullptr;
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
  bool take_final(Ino target);

  Vfs* vfs_;
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

bool Walker::take_final(Ino target) {
  target_ = target;
  if (target_ != kNoIno) {
    const Inode& t = vfs_->inode(target_);
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
        return Step::work(vfs_->costs().path_component *
                          static_cast<std::int64_t>(n));
      }
      case St::prefix_done: {
        auto walk = vfs_->walk_prefix(path_);
        if (walk.err != Errno::ok) {
          err_ = walk.err;
          st_ = St::done;
          return std::nullopt;
        }
        parent_ = walk.parent;
        final_name_ = FinalName(std::move(walk.path));
        if (policy_ == SemPolicy::hold) {
          st_ = St::locked;
          return Step::acquire(&vfs_->inode_mut(parent_).sem());
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
        const Inode& parent_inode = vfs_->inode(parent_);
        const bool must_block =
            parent_inode.rename_in_progress() ||
            (parent_inode.sem().held() && walk.target == kNoIno);
        if (!must_block) {
          if (take_final(walk.target)) {
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
        return Step::acquire(&vfs_->inode_mut(parent_).sem());
      }
      case St::locked: {
        // Look up again: the semaphore's last holder may have changed it.
        const bool restart =
            take_final(vfs_->lookup_in(parent_, final_name_.str()));
        if (policy_ == SemPolicy::lockless_if_free) {
          st_ = restart ? St::release_then_restart : St::locked_tail;
          return Step::work(vfs_->costs().stat_locked_tail);
        }
        if (restart) {
          st_ = St::init;
          return Step::release(&vfs_->inode_mut(parent_).sem());
        }
        held_ = true;  // caller releases
        st_ = St::done;
        return std::nullopt;
      }
      case St::locked_tail: {
        st_ = St::done;
        return Step::release(&vfs_->inode_mut(parent_).sem());
      }
      case St::release_then_restart: {
        st_ = St::init;
        return Step::release(&vfs_->inode_mut(parent_).sem());
      }
      case St::done:
        return std::nullopt;
    }
  }
}

/// Base of the path-taking ops: the path, its walker, the errno slot
/// and the phase counter every such op steps through.
class FsOp : public ServiceOp {
 public:
  FsOp(Vfs& vfs, Path path, Errno* err_out)
      : vfs_(&vfs), path_(std::move(path)), err_out_(err_out) {}

  /// Output slots (err_out_ and friends) are pointers, so they are
  /// rebound but never hashed: the program that owns a slot hashes its
  /// value.
  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.path_, self.err_out_, self.walker_,
                    self.phase_);
  }

  std::string_view path() const override { return path_.str(); }
  Step fail_at_entry(Errno e) override { return finish(e); }

 protected:
  Step finish(Errno e) {
    if (err_out_ != nullptr) *err_out_ = e;
    return Step::done(e);
  }

  /// Starts (on first call) and advances the walk of path_; nullopt once
  /// the walk is done.
  std::optional<Step> walk(ServiceContext& ctx, Walker::SemPolicy policy,
                           Walker::Follow follow) {
    if (!walker_) walker_.emplace(*vfs_, path_, policy, follow);
    return walker_->advance(ctx);
  }

  Vfs* vfs_;
  Path path_;
  Errno* err_out_;
  std::optional<Walker> walker_;
  int phase_ = 0;
};

/// Base of the fd-based ops (no path resolution: immune to name
/// redirection).
class FdOp : public ServiceOp {
 public:
  FdOp(Vfs& vfs, int fd, Errno* err_out)
      : vfs_(&vfs), fd_(fd), err_out_(err_out) {}

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.fd_, self.err_out_, self.phase_);
  }

  Step fail_at_entry(Errno e) override { return finish(e); }

 protected:
  Step finish(Errno e) {
    if (err_out_ != nullptr) *err_out_ = e;
    return Step::done(e);
  }

  Vfs* vfs_;
  int fd_;
  Errno* err_out_;
  int phase_ = 0;
};

// ---------------------------------------------------------------------------
// stat / lstat / access
// ---------------------------------------------------------------------------

class StatOp final : public Listed<StatOp, FsOp> {
 public:
  StatOp(Vfs& vfs, Path path, bool follow, StatBuf* out, Errno* err_out)
      : Listed(vfs, std::move(path), err_out), follow_(follow), out_(out) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.follow_, self.out_, self.ok_));
  }

  std::string_view name() const override { return follow_ ? "stat" : "lstat"; }
  int libc_page() const override { return kPageStat; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          follow_ ? Walker::Follow::yes : Walker::Follow::no)) {
          return *s;
        }
        phase_ = 1;
        return Step::work(vfs_->costs().stat_base);
      }
      default: {
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (!walker_->target_exists()) return finish(Errno::enoent);
        ok_ = true;
        if (out_ != nullptr) *out_ = walker_->snapshot();
        return finish(Errno::ok);
      }
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (ok_) {
      const auto& s = walker_->snapshot();
      rec.st_uid = s.uid;
      rec.st_gid = s.gid;
      rec.st_ino = s.ino;
    }
  }

 private:
  bool follow_;
  StatBuf* out_;
  bool ok_ = false;
};

class AccessOp final : public Listed<AccessOp, FsOp> {
 public:
  using Listed::Listed;

  static auto fields(auto& self) { return FsOp::fields(self); }

  std::string_view name() const override { return "access"; }
  int libc_page() const override { return kPageStat; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          Walker::Follow::yes)) {
          return *s;
        }
        phase_ = 1;
        return Step::work(vfs_->costs().access_base);
      }
      default: {
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (!walker_->target_exists()) return finish(Errno::enoent);
        const Inode& t = vfs_->inode(walker_->target());
        return finish(Vfs::may_read(t, creds_of(ctx)) ? Errno::ok
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
  OpenOp(Vfs& vfs, Path path, OpenFlags flags, Mode mode, OpenResult* out)
      : Listed(vfs, std::move(path), nullptr),
        flags_(flags),
        mode_(mode),
        out_(out) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.flags_, self.mode_, self.out_,
                                   self.ino_, self.pending_err_));
  }

  std::string_view name() const override { return "open"; }
  int libc_page() const override { return kPageOpenClose; }
  Step fail_at_entry(Errno e) override { return done_err(e); }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {  // resolve, holding the directory semaphore
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::yes)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return done_err(walker_->error());
        if (walker_->target_exists()) {
          const Inode& t = vfs_->inode(walker_->target());
          if (flags_.create && flags_.excl) return fail(Errno::eexist);
          if (t.is_dir() && flags_.write) return fail(Errno::eisdir);
          const auto creds = creds_of(ctx);
          const bool perm = flags_.write ? Vfs::may_write(t, creds)
                                         : Vfs::may_read(t, creds);
          if (!perm) return fail(Errno::eacces);
          ino_ = walker_->target();
          if (flags_.truncate && flags_.write) {
            vfs_->inode_mut(ino_).set_size_bytes(0);
          }
          phase_ = 2;
          return Step::release(walker_->held_dir_sem());
        }
        if (!flags_.create) return fail(Errno::enoent);
        if (!Vfs::may_write(vfs_->inode(walker_->parent()), creds_of(ctx))) {
          return fail(Errno::eacces);
        }
        phase_ = 1;
        return Step::work(vfs_->costs().create_extra);
      }
      case 1: {  // commit the newly created inode (still under the sem)
        Inode& n = vfs_->alloc_inode(FileType::regular, ctx.proc.uid(),
                                     ctx.proc.gid(), mode_);
        ino_ = n.ino();
        vfs_->link_entry(walker_->parent(), walker_->final_name(), ino_);
        phase_ = 2;
        return Step::release(walker_->held_dir_sem());
      }
      case 2: {  // fd setup after releasing the namespace lock
        phase_ = 3;
        return Step::work(vfs_->costs().open_base);
      }
      case 3: {
        const int fd = vfs_->fd_alloc(ctx.proc.pid(), ino_, flags_);
        if (out_ != nullptr) {
          out_->fd = fd;
          out_->err = Errno::ok;
        }
        return Step::done(Errno::ok);
      }
      default: {  // phase 9: error path, semaphore already released
        return done_err(pending_err_);
      }
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (ino_ != kNoIno) rec.applied_ino = ino_;
  }

 private:
  Step done_err(Errno e) {
    if (out_ != nullptr) {
      out_->fd = -1;
      out_->err = e;
    }
    return Step::done(e);
  }

  Step fail(Errno e) {
    pending_err_ = e;
    phase_ = 9;
    return Step::release(walker_->held_dir_sem());
  }

  OpenFlags flags_;
  Mode mode_;
  OpenResult* out_;
  Ino ino_ = kNoIno;
  Errno pending_err_ = Errno::ok;
};

class CloseOp final : public Listed<CloseOp, FdOp> {
 public:
  using Listed::Listed;

  static auto fields(auto& self) { return FdOp::fields(self); }

  std::string_view name() const override { return "close"; }
  int libc_page() const override { return kPageOpenClose; }

  Step advance(ServiceContext& ctx) override {
    if (phase_ == 0) {
      phase_ = 1;
      return Step::work(vfs_->costs().close_base);
    }
    return finish(vfs_->fd_close(ctx.proc.pid(), fd_));
  }
};

class WriteOp final : public Listed<WriteOp, FdOp> {
 public:
  WriteOp(Vfs& vfs, int fd, std::uint64_t bytes, Errno* err_out)
      : Listed(vfs, fd, err_out), bytes_(bytes) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FdOp::fields(self), std::tie(self.bytes_, self.ino_));
  }

  std::string_view name() const override { return "write"; }
  int libc_page() const override { return kPageReadWrite; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        const auto f = vfs_->fd_get(ctx.proc.pid(), fd_);
        if (!f.ok() || !f.value().flags.write) return finish(Errno::ebadf);
        ino_ = f.value().ino;
        phase_ = 1;
        return Step::acquire(&vfs_->inode_mut(ino_).sem());
      }
      case 1: {
        phase_ = 2;
        const double kb = static_cast<double>(bytes_) / 1024.0;
        return Step::work(vfs_->costs().write_base +
                          vfs_->costs().write_per_kb * kb);
      }
      case 2: {
        vfs_->inode_mut(ino_).add_size_bytes(bytes_);
        phase_ = 3;
        return Step::release(&vfs_->inode_mut(ino_).sem());
      }
      case 3: {
        phase_ = 4;
        // Page-cache writeback throttling: occasionally the writer is put
        // to sleep on the device — a uniprocessor suspension source.
        if (ctx.rng.bernoulli(vfs_->costs().writeback_stall_prob)) {
          return Step::block_io(ctx.rng.normal_duration(
              vfs_->costs().writeback_stall_mean,
              vfs_->costs().writeback_stall_stdev, Duration::micros(200)));
        }
        return finish(Errno::ok);
      }
      default:
        return finish(Errno::ok);
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (ino_ != kNoIno) rec.applied_ino = ino_;
  }

 private:
  std::uint64_t bytes_;
  Ino ino_ = kNoIno;
};

class ReadOp final : public Listed<ReadOp, FdOp> {
 public:
  ReadOp(Vfs& vfs, int fd, std::uint64_t bytes, Errno* err_out)
      : Listed(vfs, fd, err_out), bytes_(bytes) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FdOp::fields(self), std::tie(self.bytes_));
  }

  std::string_view name() const override { return "read"; }
  int libc_page() const override { return kPageReadWrite; }

  Step advance(ServiceContext& ctx) override {
    if (phase_ == 0) {
      const auto f = vfs_->fd_get(ctx.proc.pid(), fd_);
      if (!f.ok()) return finish(Errno::ebadf);
      phase_ = 1;
      const double kb = static_cast<double>(bytes_) / 1024.0;
      return Step::work(vfs_->costs().read_base +
                        vfs_->costs().read_per_kb * kb);
    }
    return finish(Errno::ok);
  }

 private:
  std::uint64_t bytes_;
};

// ---------------------------------------------------------------------------
// rename / unlink / symlink / mkdir / readlink
// ---------------------------------------------------------------------------

class RenameOp final : public Listed<RenameOp, FsOp> {
 public:
  RenameOp(Vfs& vfs, Path oldpath, Path newpath, Errno* err_out)
      : Listed(vfs, std::move(oldpath), err_out),
        newpath_(std::move(newpath)) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.newpath_, self.new_final_,
                                   self.applied_, self.pending_err_));
  }

  std::string_view name() const override { return "rename"; }
  std::string_view path2() const override { return newpath_.str(); }
  int libc_page() const override { return kPageRename; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (!walker_->target_exists()) return fail(Errno::enoent);
        auto nw = vfs_->walk_prefix(newpath_);
        if (nw.err != Errno::ok) return fail(nw.err);
        if (nw.parent != walker_->parent()) return fail(Errno::exdev);
        new_final_ = FinalName(std::move(nw.path));
        if (new_final_.str() == walker_->final_name()) {
          return fail(Errno::einval);
        }
        if (!Vfs::may_write(vfs_->inode(walker_->parent()), creds_of(ctx))) {
          return fail(Errno::eacces);
        }
        // Models the rename seqlock: lockless lookups in this directory
        // take the slow path until the commit.
        vfs_->inode_mut(walker_->parent()).set_rename_in_progress(true);
        phase_ = 1;
        return Step::work(vfs_->costs().rename_work);
      }
      case 1: {  // commit point, still under the directory semaphore
        const Ino dir = walker_->parent();
        const Ino tgt = walker_->target();
        vfs_->unlink_entry(dir, walker_->final_name());
        if (vfs_->lookup_in(dir, new_final_.str()) != kNoIno) {
          vfs_->unlink_entry(dir, new_final_.str());
        }
        vfs_->link_entry(dir, new_final_.str(), tgt);
        applied_ = tgt;
        vfs_->inode_mut(dir).set_rename_in_progress(false);
        phase_ = 2;
        return Step::release(walker_->held_dir_sem());
      }
      case 2: {
        phase_ = 3;
        return Step::work(vfs_->costs().rename_tail);
      }
      default:
        return finish(pending_err_);
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (applied_ != kNoIno) rec.applied_ino = applied_;
  }

 private:
  Step fail(Errno e) {
    pending_err_ = e;
    phase_ = 3;
    return Step::release(walker_->held_dir_sem());
  }

  Path newpath_;
  FinalName new_final_;
  Ino applied_ = kNoIno;
  Errno pending_err_ = Errno::ok;
};

class UnlinkOp final : public Listed<UnlinkOp, FsOp> {
 public:
  using Listed::Listed;

  static auto fields(auto& self) {
    return std::tuple_cat(
        FsOp::fields(self),
        std::tie(self.ino_, self.pending_err_, self.truncating_));
  }

  std::string_view name() const override { return "unlink"; }
  int libc_page() const override { return kPageUnlinkSymlink; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (!walker_->target_exists()) return fail(Errno::enoent);
        ino_ = walker_->target();
        if (vfs_->inode(ino_).is_dir()) return fail(Errno::eisdir);
        if (!Vfs::may_write(vfs_->inode(walker_->parent()), creds_of(ctx))) {
          return fail(Errno::eacces);
        }
        phase_ = 1;
        // Lock order everywhere: directory sem, then target inode sem.
        return Step::acquire(&vfs_->inode_mut(ino_).sem());
      }
      case 1: {
        phase_ = 2;
        return Step::work(vfs_->costs().unlink_detach);
      }
      case 2: {  // detach commit: the name disappears from the directory
        vfs_->unlink_entry(walker_->parent(), walker_->final_name());
        phase_ = 3;
        return Step::release(walker_->held_dir_sem());
      }
      case 3: {  // physical truncate happens after the dir sem is free —
                 // this is what lets a parallel symlink overlap (Sec. 7).
        phase_ = 4;
        const Inode& n = vfs_->inode(ino_);
        // Orphans with open fds keep their data (vi keeps writing through
        // its fd after the attacker's unlink); truncate only when fully
        // unreferenced.
        truncating_ =
            n.nlink() == 0 && n.open_refs() == 0 && n.size_bytes() > 0;
        if (truncating_) {
          const double kb = static_cast<double>(n.size_bytes()) / 1024.0;
          return Step::work(vfs_->costs().truncate_per_kb * kb);
        }
        return advance(ctx);
      }
      case 4: {
        if (truncating_) vfs_->inode_mut(ino_).set_size_bytes(0);
        phase_ = 5;
        return Step::release(&vfs_->inode_mut(ino_).sem());
      }
      default:
        return finish(pending_err_);
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (ino_ != kNoIno) rec.applied_ino = ino_;
  }

 private:
  Step fail(Errno e) {
    pending_err_ = e;
    phase_ = 5;
    return Step::release(walker_->held_dir_sem());
  }

  Ino ino_ = kNoIno;
  Errno pending_err_ = Errno::ok;
  bool truncating_ = false;
};

class SymlinkOp final : public Listed<SymlinkOp, FsOp> {
 public:
  SymlinkOp(Vfs& vfs, Path target, Path linkpath, Errno* err_out)
      : Listed(vfs, std::move(linkpath), err_out), target_(std::move(target)) {}

  static auto fields(auto& self) {
    return std::tuple_cat(
        FsOp::fields(self),
        std::tie(self.target_, self.applied_, self.pending_err_));
  }

  std::string_view name() const override { return "symlink"; }
  std::string_view path2() const override { return target_.str(); }
  int libc_page() const override { return kPageUnlinkSymlink; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (walker_->target_exists()) return fail(Errno::eexist);
        if (!Vfs::may_write(vfs_->inode(walker_->parent()), creds_of(ctx))) {
          return fail(Errno::eacces);
        }
        phase_ = 1;
        return Step::work(vfs_->costs().symlink_base);
      }
      case 1: {  // commit
        Inode& n = vfs_->alloc_inode(FileType::symlink, ctx.proc.uid(),
                                     ctx.proc.gid(), 0777);
        n.set_symlink_target(target_);
        vfs_->link_entry(walker_->parent(), walker_->final_name(), n.ino());
        applied_ = n.ino();
        phase_ = 2;
        return Step::release(walker_->held_dir_sem());
      }
      default:
        return finish(pending_err_);
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (applied_ != kNoIno) rec.applied_ino = applied_;
  }

 private:
  Step fail(Errno e) {
    pending_err_ = e;
    phase_ = 2;
    return Step::release(walker_->held_dir_sem());
  }

  Path target_;
  Ino applied_ = kNoIno;
  Errno pending_err_ = Errno::ok;
};

class MkdirOp final : public Listed<MkdirOp, FsOp> {
 public:
  MkdirOp(Vfs& vfs, Path path, Mode mode, Errno* err_out)
      : Listed(vfs, std::move(path), err_out), mode_(mode) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.mode_, self.pending_err_));
  }

  std::string_view name() const override { return "mkdir"; }
  int libc_page() const override { return kPageMisc; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::hold, Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (walker_->target_exists()) return fail(Errno::eexist);
        if (!Vfs::may_write(vfs_->inode(walker_->parent()), creds_of(ctx))) {
          return fail(Errno::eacces);
        }
        phase_ = 1;
        return Step::work(vfs_->costs().mkdir_base);
      }
      case 1: {
        Inode& n = vfs_->alloc_inode(FileType::directory, ctx.proc.uid(),
                                     ctx.proc.gid(), mode_);
        vfs_->link_entry(walker_->parent(), walker_->final_name(), n.ino());
        phase_ = 2;
        return Step::release(walker_->held_dir_sem());
      }
      default:
        return finish(pending_err_);
    }
  }

 private:
  Step fail(Errno e) {
    pending_err_ = e;
    phase_ = 2;
    return Step::release(walker_->held_dir_sem());
  }

  Mode mode_;
  Errno pending_err_ = Errno::ok;
};

class ReadlinkOp final : public Listed<ReadlinkOp, FsOp> {
 public:
  ReadlinkOp(Vfs& vfs, Path path, std::string* out, Errno* err_out)
      : Listed(vfs, std::move(path), err_out), out_(out) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self), std::tie(self.out_));
  }

  std::string_view name() const override { return "readlink"; }
  int libc_page() const override { return kPageMisc; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          Walker::Follow::no)) {
          return *s;
        }
        phase_ = 1;
        return Step::work(vfs_->costs().readlink_base);
      }
      default: {
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (!walker_->target_exists()) return finish(Errno::enoent);
        const Inode& t = vfs_->inode(walker_->target());
        if (!t.is_symlink()) return finish(Errno::einval);
        if (out_ != nullptr) *out_ = t.symlink_target().str();
        return finish(Errno::ok);
      }
    }
  }

 private:
  std::string* out_;
};

class LinkOp final : public Listed<LinkOp, FsOp> {
 public:
  LinkOp(Vfs& vfs, Path oldpath, Path newpath, Errno* err_out)
      : Listed(vfs, std::move(oldpath), err_out),
        newpath_(std::move(newpath)) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self),
                          std::tie(self.newpath_, self.new_walker_,
                                   self.target_ino_, self.pending_err_));
  }

  std::string_view name() const override { return "link"; }
  std::string_view path2() const override { return newpath_.str(); }
  int libc_page() const override { return kPageUnlinkSymlink; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {  // resolve the existing file (no symlink follow, as link(2))
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          Walker::Follow::no)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (!walker_->target_exists()) return finish(Errno::enoent);
        if (vfs_->inode(walker_->target()).is_dir()) {
          return finish(Errno::eisdir);
        }
        target_ino_ = walker_->target();
        phase_ = 1;
        new_walker_.emplace(*vfs_, newpath_, Walker::SemPolicy::hold,
                            Walker::Follow::no);
        return advance(ctx);
      }
      case 1: {  // take the destination directory's semaphore
        if (auto s = new_walker_->advance(ctx)) return *s;
        if (new_walker_->error() != Errno::ok) {
          return finish(new_walker_->error());
        }
        if (new_walker_->target_exists()) return fail(Errno::eexist);
        if (!Vfs::may_write(vfs_->inode(new_walker_->parent()),
                            creds_of(ctx))) {
          return fail(Errno::eacces);
        }
        phase_ = 2;
        return Step::work(vfs_->costs().link_base);
      }
      case 2: {  // commit
        vfs_->link_entry(new_walker_->parent(), new_walker_->final_name(),
                         target_ino_);
        phase_ = 3;
        return Step::release(new_walker_->held_dir_sem());
      }
      default:
        return finish(pending_err_);
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (target_ino_ != kNoIno) rec.applied_ino = target_ino_;
  }

 private:
  Step fail(Errno e) {
    pending_err_ = e;
    phase_ = 3;
    return Step::release(new_walker_->held_dir_sem());
  }

  Path newpath_;
  std::optional<Walker> new_walker_;
  Ino target_ino_ = kNoIno;
  Errno pending_err_ = Errno::ok;
};

// ---------------------------------------------------------------------------
// fd-based operations
// ---------------------------------------------------------------------------

class FstatOp final : public Listed<FstatOp, FdOp> {
 public:
  FstatOp(Vfs& vfs, int fd, StatBuf* out, Errno* err_out)
      : Listed(vfs, fd, err_out), out_(out) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FdOp::fields(self), std::tie(self.out_, self.ino_));
  }

  std::string_view name() const override { return "fstat"; }
  int libc_page() const override { return kPageStat; }

  Step advance(ServiceContext& ctx) override {
    if (phase_ == 0) {
      phase_ = 1;
      return Step::work(vfs_->costs().stat_base);
    }
    const auto f = vfs_->fd_get(ctx.proc.pid(), fd_);
    if (!f.ok()) return finish(Errno::ebadf);
    ino_ = f.value().ino;
    if (out_ != nullptr) *out_ = vfs_->inode(ino_).to_stat();
    return finish(Errno::ok);
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (ino_ != kNoIno) rec.applied_ino = ino_;
  }

 private:
  StatBuf* out_;
  Ino ino_ = kNoIno;
};

/// fchmod/fchown: acquire the open inode's semaphore, apply, release.
/// The inode was fixed at open() time — the attacker's rename/symlink
/// games after that are irrelevant.
class FSetAttrOp : public FdOp {
 public:
  using FdOp::FdOp;

  static auto fields(auto& self) {
    return std::tuple_cat(FdOp::fields(self), std::tie(self.ino_));
  }

  int libc_page() const override { return kPageChmodChown; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        const auto f = vfs_->fd_get(ctx.proc.pid(), fd_);
        if (!f.ok()) return finish(Errno::ebadf);
        ino_ = f.value().ino;
        if (!permitted(vfs_->inode(ino_), creds_of(ctx))) {
          return finish(Errno::eperm);
        }
        phase_ = 1;
        return Step::acquire(&vfs_->inode_mut(ino_).sem());
      }
      case 1: {
        phase_ = 2;
        return Step::work(work_cost());
      }
      case 2: {
        apply(vfs_->inode_mut(ino_));
        phase_ = 3;
        return Step::release(&vfs_->inode_mut(ino_).sem());
      }
      default:
        return finish(Errno::ok);
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (ino_ != kNoIno) rec.applied_ino = ino_;
  }

 protected:
  virtual bool permitted(const Inode& target, const Creds& c) const = 0;
  virtual Duration work_cost() const = 0;
  virtual void apply(Inode& target) = 0;

 private:
  Ino ino_ = kNoIno;
};

class FchmodOp final : public Listed<FchmodOp, FSetAttrOp> {
 public:
  FchmodOp(Vfs& vfs, int fd, Mode mode, Errno* err_out)
      : Listed(vfs, fd, err_out), mode_(mode) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FSetAttrOp::fields(self), std::tie(self.mode_));
  }

  std::string_view name() const override { return "fchmod"; }

 protected:
  bool permitted(const Inode& t, const Creds& c) const override {
    return c.is_root() || t.uid() == c.uid;
  }
  Duration work_cost() const override { return vfs_->costs().chmod_base; }
  void apply(Inode& t) override { t.set_mode(mode_); }

 private:
  Mode mode_;
};

class FchownOp final : public Listed<FchownOp, FSetAttrOp> {
 public:
  FchownOp(Vfs& vfs, int fd, sim::Uid uid, sim::Gid gid, Errno* err_out)
      : Listed(vfs, fd, err_out), uid_(uid), gid_(gid) {}

  static auto fields(auto& self) {
    return std::tuple_cat(FSetAttrOp::fields(self),
                          std::tie(self.uid_, self.gid_));
  }

  std::string_view name() const override { return "fchown"; }

 protected:
  bool permitted(const Inode& t, const Creds& c) const override {
    (void)t;
    return c.is_root();
  }
  Duration work_cost() const override { return vfs_->costs().chown_base; }
  void apply(Inode& t) override { t.set_owner(uid_, gid_); }

 private:
  sim::Uid uid_;
  sim::Gid gid_;
};

// ---------------------------------------------------------------------------
// chmod / chown
// ---------------------------------------------------------------------------

/// Shared by chmod and chown: resolve the path (following symlinks — the
/// fatal behaviour the attacks exploit; lockless dcache walk like stat),
/// then apply under the TARGET INODE's semaphore. This is the semaphore
/// the paper's cascade runs through: an unlink holding the inode
/// semaphore through detach+truncate delays the victim's chmod, which in
/// turn delays the chown past the attacker's symlink (Section 6.1). Note
/// POSIX semantics: the operation applies to the inode resolved at
/// lookup time even if the name is unlinked while waiting.
class SetAttrOp : public FsOp {
 public:
  using FsOp::FsOp;

  static auto fields(auto& self) {
    return std::tuple_cat(FsOp::fields(self), std::tie(self.ino_));
  }

  int libc_page() const override { return kPageChmodChown; }

  Step advance(ServiceContext& ctx) override {
    switch (phase_) {
      case 0: {
        if (auto s = walk(ctx, Walker::SemPolicy::lockless_if_free,
                          Walker::Follow::yes)) {
          return *s;
        }
        if (walker_->error() != Errno::ok) return finish(walker_->error());
        if (!walker_->target_exists()) return finish(Errno::enoent);
        ino_ = walker_->target();
        if (!permitted(vfs_->inode(ino_), creds_of(ctx))) {
          return finish(Errno::eperm);
        }
        phase_ = 1;
        return Step::acquire(&vfs_->inode_mut(ino_).sem());
      }
      case 1: {
        phase_ = 2;
        return Step::work(work_cost());
      }
      case 2: {  // commit
        apply(vfs_->inode_mut(ino_));
        phase_ = 3;
        return Step::release(&vfs_->inode_mut(ino_).sem());
      }
      default:
        return finish(Errno::ok);
    }
  }

  void fill_record(trace::SyscallRecord& rec) const override {
    if (ino_ != kNoIno) rec.applied_ino = ino_;
  }

 protected:
  virtual bool permitted(const Inode& target, const Creds& c) const = 0;
  virtual Duration work_cost() const = 0;
  virtual void apply(Inode& target) = 0;

 private:
  Ino ino_ = kNoIno;
};

class ChmodOp final : public Listed<ChmodOp, SetAttrOp> {
 public:
  ChmodOp(Vfs& vfs, Path path, Mode mode, Errno* err_out)
      : Listed(vfs, std::move(path), err_out), mode_(mode) {}

  static auto fields(auto& self) {
    return std::tuple_cat(SetAttrOp::fields(self), std::tie(self.mode_));
  }

  std::string_view name() const override { return "chmod"; }

 protected:
  bool permitted(const Inode& t, const Creds& c) const override {
    return c.is_root() || t.uid() == c.uid;
  }
  Duration work_cost() const override { return vfs_->costs().chmod_base; }
  void apply(Inode& t) override { t.set_mode(mode_); }

 private:
  Mode mode_;
};

class ChownOp final : public Listed<ChownOp, SetAttrOp> {
 public:
  ChownOp(Vfs& vfs, Path path, sim::Uid uid, sim::Gid gid, Errno* err_out)
      : Listed(vfs, std::move(path), err_out), uid_(uid), gid_(gid) {}

  static auto fields(auto& self) {
    return std::tuple_cat(SetAttrOp::fields(self),
                          std::tie(self.uid_, self.gid_));
  }

  std::string_view name() const override { return "chown"; }

 protected:
  bool permitted(const Inode& t, const Creds& c) const override {
    (void)t;
    return c.is_root();  // only root may give files away
  }
  Duration work_cost() const override { return vfs_->costs().chown_base; }
  void apply(Inode& t) override { t.set_owner(uid_, gid_); }

 private:
  sim::Uid uid_;
  sim::Gid gid_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factory methods
// ---------------------------------------------------------------------------

std::unique_ptr<ServiceOp> Vfs::stat_op(Path path, StatBuf* out,
                                        Errno* err_out) {
  return std::make_unique<StatOp>(*this, std::move(path), true, out, err_out);
}

std::unique_ptr<ServiceOp> Vfs::lstat_op(Path path, StatBuf* out,
                                         Errno* err_out) {
  return std::make_unique<StatOp>(*this, std::move(path), false, out,
                                  err_out);
}

std::unique_ptr<ServiceOp> Vfs::access_op(Path path, Errno* err_out) {
  return std::make_unique<AccessOp>(*this, std::move(path), err_out);
}

std::unique_ptr<ServiceOp> Vfs::open_op(Path path, OpenFlags flags, Mode mode,
                                        OpenResult* out) {
  return std::make_unique<OpenOp>(*this, std::move(path), flags, mode, out);
}

std::unique_ptr<ServiceOp> Vfs::close_op(int fd, Errno* err_out) {
  return std::make_unique<CloseOp>(*this, fd, err_out);
}

std::unique_ptr<ServiceOp> Vfs::write_op(int fd, std::uint64_t bytes,
                                         Errno* err_out) {
  return std::make_unique<WriteOp>(*this, fd, bytes, err_out);
}

std::unique_ptr<ServiceOp> Vfs::read_op(int fd, std::uint64_t bytes,
                                        Errno* err_out) {
  return std::make_unique<ReadOp>(*this, fd, bytes, err_out);
}

std::unique_ptr<ServiceOp> Vfs::rename_op(Path oldpath, Path newpath,
                                          Errno* err_out) {
  return std::make_unique<RenameOp>(*this, std::move(oldpath),
                                    std::move(newpath), err_out);
}

std::unique_ptr<ServiceOp> Vfs::unlink_op(Path path, Errno* err_out) {
  return std::make_unique<UnlinkOp>(*this, std::move(path), err_out);
}

std::unique_ptr<ServiceOp> Vfs::symlink_op(Path target, Path linkpath,
                                           Errno* err_out) {
  return std::make_unique<SymlinkOp>(*this, std::move(target),
                                     std::move(linkpath), err_out);
}

std::unique_ptr<ServiceOp> Vfs::chmod_op(Path path, Mode mode,
                                         Errno* err_out) {
  return std::make_unique<ChmodOp>(*this, std::move(path), mode, err_out);
}

std::unique_ptr<ServiceOp> Vfs::chown_op(Path path, sim::Uid uid,
                                         sim::Gid gid, Errno* err_out) {
  return std::make_unique<ChownOp>(*this, std::move(path), uid, gid, err_out);
}

std::unique_ptr<ServiceOp> Vfs::mkdir_op(Path path, Mode mode,
                                         Errno* err_out) {
  return std::make_unique<MkdirOp>(*this, std::move(path), mode, err_out);
}

std::unique_ptr<ServiceOp> Vfs::readlink_op(Path path, std::string* out,
                                            Errno* err_out) {
  return std::make_unique<ReadlinkOp>(*this, std::move(path), out, err_out);
}

std::unique_ptr<ServiceOp> Vfs::link_op(Path oldpath, Path newpath,
                                        Errno* err_out) {
  return std::make_unique<LinkOp>(*this, std::move(oldpath),
                                  std::move(newpath), err_out);
}

std::unique_ptr<ServiceOp> Vfs::fstat_op(int fd, StatBuf* out,
                                         Errno* err_out) {
  return std::make_unique<FstatOp>(*this, fd, out, err_out);
}

std::unique_ptr<ServiceOp> Vfs::fchmod_op(int fd, Mode mode, Errno* err_out) {
  return std::make_unique<FchmodOp>(*this, fd, mode, err_out);
}

std::unique_ptr<ServiceOp> Vfs::fchown_op(int fd, sim::Uid uid, sim::Gid gid,
                                          Errno* err_out) {
  return std::make_unique<FchownOp>(*this, fd, uid, gid, err_out);
}

}  // namespace tocttou::fs
