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
// O(log width); a copy-on-write copy copies it as it is. A symlink holds
// its target as a shared Path, so following the link copies a handle and
// the walk reads the components parsed when the link was made.
//
// Inodes are stored and shared in chunks: an InodeChunk holds up to
// kChunkInodes consecutive inodes inline, in one allocation under one
// reference count. A RoundContext's staged template, the rounds cloned
// from it and every checkpoint fork hold handles to the same chunks, and
// Vfs::inode_mut copies a chunk whole, before its first write, only when
// another Vfs still holds it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tocttou/common/path.h"
#include "tocttou/fs/types.h"
#include "tocttou/sim/semaphore.h"

namespace tocttou::fs {

class Inode {
 public:
  Inode(Ino ino, FileType type, sim::Uid uid, sim::Gid gid, Mode mode)
      : ino_(ino), type_(type), uid_(uid), gid_(gid), mode_(mode),
        sem_(ino) {}

  /// Copy-on-write copy: the inode and its embedded semaphore, as they
  /// are. Nothing outside the Vfs points into an inode (ops and
  /// processes name it by number), so a Vfs may swap a shared chunk for
  /// its private copy at any time.
  Inode(const Inode&) = default;
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
  const Path& symlink_target() const { return symlink_target_; }

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
  void set_symlink_target(Path t) { symlink_target_ = std::move(t); }
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
    h.str(symlink_target_.str());
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
  Path symlink_target_;
  std::vector<Entry> entries_;
  sim::Semaphore sem_;
  bool rename_in_progress_ = false;
};

/// Inodes per chunk. A Vfs copy holds one handle per chunk, and a write
/// to a shared chunk copies all of its inodes: at 16, a private copy is
/// one 2,056-byte block, and the 26,621 inodes of a
/// `procs=256,inodes=25600` tree take 1,664 handles.
inline constexpr std::size_t kChunkInodes = 16;

/// Shared, reference-counted handle to up to kChunkInodes consecutive
/// inodes, stored inline in one block (an intrusive pointer over the
/// block's count). Copying a handle shares the block; mut() and
/// emplace_back() first replace a shared block with a private copy of
/// all its inodes. Handles of one block may live in different threads —
/// a checkpoint minted by one explorer worker is forked by another — so
/// the count is atomic, in the default sequentially consistent order:
/// the uniqueness test must at least acquire, pairing with a former
/// co-owner's decrement so that owner's reads of the block happen before
/// our writes. A shared block is never written, its size included.
class InodeChunk {
 public:
  InodeChunk() : b_(new Block) {}
  InodeChunk(const InodeChunk& o) : b_(o.b_) { ++b_->refs; }
  InodeChunk(InodeChunk&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  InodeChunk& operator=(const InodeChunk& o) {
    if (b_ != o.b_) *this = InodeChunk(o);
    return *this;
  }
  InodeChunk& operator=(InodeChunk&& o) noexcept {
    std::swap(b_, o.b_);  // `o` releases our old block
    return *this;
  }
  /// The last handle destroys the inodes and frees the block.
  ~InodeChunk() {
    if (b_ != nullptr && --b_->refs == 0) delete b_;
  }

  std::size_t size() const { return b_->size; }
  bool full() const { return b_->size == kChunkInodes; }
  const Inode& operator[](std::size_t i) const { return b_->inodes[i]; }
  /// True iff both handles share one block.
  bool shares(const InodeChunk& o) const { return b_ == o.b_; }

  /// Write access to inode `i`. It may copy the block, which moves every
  /// inode of the chunk.
  Inode& mut(std::size_t i) {
    unshare();
    return b_->inodes[i];
  }
  /// Constructs the next inode in place (the chunk must not be full),
  /// copying a shared block first.
  template <class... Args>
  Inode& emplace_back(Args&&... args) {
    unshare();
    Inode* n = std::construct_at(&b_->inodes[b_->size],
                                 std::forward<Args>(args)...);
    ++b_->size;
    return *n;
  }

 private:
  struct Block {
    Block() {}
    /// Delegates, so that the destructor frees what a throwing copy
    /// constructed.
    Block(const Block& o) : Block() {
      for (; size < o.size; ++size) {
        std::construct_at(&inodes[size], o.inodes[size]);
      }
    }
    ~Block() { std::destroy_n(inodes, size); }

    std::atomic<std::uint32_t> refs{1};
    std::uint32_t size = 0;  // inodes[0, size) are constructed
    union {
      Inode inodes[kChunkInodes];
    };
  };

  void unshare() {
    if (b_->refs.load() != 1) *this = InodeChunk(new Block(*b_));
  }
  /// Takes the first reference to a fresh, unshared block.
  explicit InodeChunk(Block* b) : b_(b) {}

  Block* b_;
};

}  // namespace tocttou::fs
