// In-memory inode.
//
// Every inode carries a semaphore modeling the Linux 2.6 `i_sem`
// (i_mutex): namespace operations hold the parent directory's semaphore,
// attribute operations hold the target's. The FIFO hand-off of these
// semaphores is what arbitrates the paper's races (Section 3.4: "the race
// is reduced to the competition for the semaphore"). The semaphore is
// named by the inode's number: an inode formats no name.
//
// A directory's entries are one vector sorted by name bytes, searched in
// O(log width); a copy-on-write copy copies it as it is.
//
// Inodes are shared copy-on-write between Vfs copies: a RoundContext's
// staged template, the rounds cloned from it and every checkpoint fork
// hold InodeRef handles to the same objects, and Vfs::inode_mut copies
// an inode only when another Vfs still references it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tocttou/fs/types.h"
#include "tocttou/sim/semaphore.h"

namespace tocttou::fs {

class Inode {
 public:
  Inode(Ino ino, FileType type, sim::Uid uid, sim::Gid gid, Mode mode)
      : ino_(ino), type_(type), uid_(uid), gid_(gid), mode_(mode),
        sem_(ino) {}

  /// Copy-on-write copy: the inode and its embedded semaphore, as they
  /// are, unshared (no handle references it yet). Nothing outside the
  /// Vfs points into an inode (ops and processes name it by number), so
  /// a Vfs may swap a shared inode for its private copy at any time.
  Inode(const Inode& o)
      : ino_(o.ino_), type_(o.type_), uid_(o.uid_), gid_(o.gid_),
        mode_(o.mode_), size_bytes_(o.size_bytes_), nlink_(o.nlink_),
        open_refs_(o.open_refs_), symlink_target_(o.symlink_target_),
        entries_(o.entries_), sem_(o.sem_),
        rename_in_progress_(o.rename_in_progress_) {}

  Inode& operator=(const Inode&) = delete;

  Ino ino() const { return ino_; }
  FileType type() const { return type_; }
  bool is_dir() const { return type_ == FileType::directory; }
  bool is_symlink() const { return type_ == FileType::symlink; }

  sim::Uid uid() const { return uid_; }
  sim::Gid gid() const { return gid_; }
  Mode mode() const { return mode_; }
  std::uint64_t size_bytes() const { return size_bytes_; }
  int nlink() const { return nlink_; }
  int open_refs() const { return open_refs_; }
  const std::string& symlink_target() const { return symlink_target_; }

  /// Directory entries (name, inode), sorted by the names' unsigned
  /// bytes, the order hash_state and the audits read. Only valid for
  /// directories.
  using Entry = std::pair<std::string, Ino>;
  const std::vector<Entry>& entries() const { return entries_; }

  /// Child lookup by binary search (kNoIno when absent).
  Ino lookup(std::string_view name) const {
    const auto it = slot(name);
    return it != entries_.end() && it->first == name ? it->second : kNoIno;
  }

  sim::Semaphore& sem() { return sem_; }
  const sim::Semaphore& sem() const { return sem_; }

  /// True while a rename is mutating this directory. Models the Linux
  /// rename seqlock: concurrent lockless lookups in a directory being
  /// renamed-into must retry on the slow path (this is what lengthens
  /// the attacker's stat to ~26us in the paper's Figure 10).
  bool rename_in_progress() const { return rename_in_progress_; }
  void set_rename_in_progress(bool v) { rename_in_progress_ = v; }

  /// Mutators used by VFS ops at their commit points (and by tests).
  void set_mode(Mode m) { mode_ = m; }
  void set_owner(sim::Uid uid, sim::Gid gid) {
    uid_ = uid;
    gid_ = gid;
  }
  void set_size_bytes(std::uint64_t n) { size_bytes_ = n; }
  void add_size_bytes(std::uint64_t n) { size_bytes_ += n; }
  void set_symlink_target(std::string t) { symlink_target_ = std::move(t); }
  /// Test-only back door: plants link-count corruption so the VFS audit
  /// fixture can prove the auditor detects it. Never used by ops.
  void set_nlink(int n) { nlink_ = n; }

  /// Canonical digest contribution (DESIGN.md §10). Raw inos are stable
  /// across same-prefix executions (allocation order is deterministic),
  /// so no renumbering pass is needed.
  void hash_state(StateHasher& h) const {
    h.u64(ino_);
    h.u32(static_cast<std::uint32_t>(type_));
    h.u64(uid_);
    h.u64(gid_);
    h.u64(mode_);
    h.u64(size_bytes_);
    h.i64(nlink_);
    h.i64(open_refs_);
    h.str(symlink_target_);
    h.u64(entries_.size());
    for (const auto& [name, target] : entries_) {
      h.str(name);
      h.u64(target);
    }
    sem_.hash_state(h);
    h.boolean(rename_in_progress_);
  }

  StatBuf to_stat() const {
    StatBuf s;
    s.ino = ino_;
    s.type = type_;
    s.uid = uid_;
    s.gid = gid_;
    s.mode = mode_;
    s.size_bytes = size_bytes_;
    return s;
  }

 private:
  friend class Vfs;
  friend class InodeRef;

  /// The first entry whose name is not below `name`: where `name` is,
  /// or where Vfs::link_entry inserts it.
  std::vector<Entry>::const_iterator slot(std::string_view name) const {
    return std::ranges::lower_bound(entries_, name, {}, &Entry::first);
  }

  Ino ino_;
  FileType type_;
  sim::Uid uid_;
  sim::Gid gid_;
  Mode mode_;
  std::uint64_t size_bytes_ = 0;
  int nlink_ = 0;
  int open_refs_ = 0;
  std::string symlink_target_;
  std::vector<Entry> entries_;
  sim::Semaphore sem_;
  bool rename_in_progress_ = false;
  /// InodeRef handles sharing this inode. Kept inside the inode, so an
  /// inode stays one allocation; never copied with it.
  std::atomic<std::uint32_t> refs_{0};
};

/// Shared, reference-counted handle to an inode (an intrusive pointer
/// over Inode::refs_). Copying a handle shares the inode; Vfs::inode_mut
/// replaces a shared one with a private copy before writing. Handles of
/// one inode may live in different threads — a checkpoint minted by one
/// explorer worker is forked by another — so the count is atomic, in
/// the default sequentially consistent order: unique() must at least
/// acquire, pairing with a former co-owner's decrement so that owner's
/// reads of the inode happen before our writes.
class InodeRef {
 public:
  /// Takes the first reference to a freshly allocated, unshared inode.
  explicit InodeRef(Inode* n) : n_(n) { ++n_->refs_; }
  InodeRef(const InodeRef& o) : n_(o.n_) { ++n_->refs_; }
  InodeRef(InodeRef&& o) noexcept : n_(std::exchange(o.n_, nullptr)) {}
  InodeRef& operator=(const InodeRef& o) {
    if (n_ != o.n_) *this = InodeRef(o);
    return *this;
  }
  InodeRef& operator=(InodeRef&& o) noexcept {
    std::swap(n_, o.n_);  // `o` releases our old inode
    return *this;
  }
  /// The last handle deletes the inode.
  ~InodeRef() {
    if (n_ != nullptr && --n_->refs_ == 0) delete n_;
  }

  const Inode& operator*() const { return *n_; }
  const Inode* operator->() const { return n_; }
  /// The shared inode: equal across two handles iff they share it.
  const Inode* get() const { return n_; }

  /// True when no other handle shares the inode, so writing through
  /// mut() is invisible to every other Vfs.
  bool unique() const { return n_->refs_.load() == 1; }
  /// Write access; the caller (Vfs::inode_mut) has checked unique().
  Inode& mut() const { return *n_; }

 private:
  Inode* n_;
};

}  // namespace tocttou::fs
