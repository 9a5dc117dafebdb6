// In-memory inode.
//
// Every inode carries a semaphore modeling the Linux 2.6 `i_sem`
// (i_mutex): namespace operations hold the parent directory's semaphore,
// attribute operations hold the target's. The FIFO hand-off of these
// semaphores is what arbitrates the paper's races (Section 3.4: "the race
// is reduced to the competition for the semaphore").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>

#include "tocttou/fs/types.h"
#include "tocttou/sim/semaphore.h"

namespace tocttou::fs {

class Inode {
 public:
  Inode(Ino ino, FileType type, sim::Uid uid, sim::Gid gid, Mode mode,
        std::string sem_name)
      : ino_(ino), type_(type), uid_(uid), gid_(gid), mode_(mode),
        sem_(std::move(sem_name)) {}

  /// Checkpoint rebind: deep-copies the inode (including its embedded
  /// semaphore) for a cloned Vfs. Registration of the old->new range is
  /// the caller's job (Vfs::Vfs(const Vfs&, CloneMap&) registers every
  /// inode so `Semaphore*` held by in-flight walkers can remap).
  Inode(const Inode& o, sim::CloneMap& m)
      : ino_(o.ino_), type_(o.type_), uid_(o.uid_), gid_(o.gid_),
        mode_(o.mode_), size_bytes_(o.size_bytes_), nlink_(o.nlink_),
        open_refs_(o.open_refs_), symlink_target_(o.symlink_target_),
        entries_(o.entries_), sem_(o.sem_, m),
        rename_in_progress_(o.rename_in_progress_) {
    rebuild_index();  // the index views must point into OUR entry keys
  }

  Inode(const Inode&) = delete;
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

  /// Directory entries (name -> inode). Only valid for directories.
  /// The ordered map is the source of truth (audit and hash_state need
  /// deterministic name-order iteration); `index_` shadows it with a
  /// hashed name -> ino index so lookup costs O(1) instead of O(log n)
  /// string comparisons in a wide directory.
  using EntryMap = std::map<std::string, Ino, std::less<>>;
  const EntryMap& entries() const { return entries_; }

  /// O(1) child lookup through the hashed index (kNoIno when absent).
  Ino lookup(std::string_view name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? kNoIno : it->second;
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

  /// Entry mutators keeping `index_` in lockstep. The index keys are
  /// string_views into the EntryMap's keys — node-stable, so only the
  /// erased name's view ever dangles, and it is dropped from the index
  /// BEFORE the map node goes away.
  void add_entry(const std::string& name, Ino target) {
    const auto [it, inserted] = entries_.emplace(name, target);
    if (inserted) index_.emplace(std::string_view(it->first), target);
  }
  void remove_entry(EntryMap::iterator it) {
    index_.erase(std::string_view(it->first));
    entries_.erase(it);
  }
  void rebuild_index() {
    index_.clear();
    for (const auto& [name, target] : entries_) {
      index_.emplace(std::string_view(name), target);
    }
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
  EntryMap entries_;
  std::unordered_map<std::string_view, Ino> index_;
  sim::Semaphore sem_;
  bool rename_in_progress_ = false;
};

}  // namespace tocttou::fs
