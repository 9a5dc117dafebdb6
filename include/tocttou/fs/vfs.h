// The in-memory Unix-style virtual file system.
//
// Vfs owns the inode table, the per-process file-descriptor tables, and
// the factories producing syscall ServiceOps. Metadata mutations are
// instantaneous at their commit point inside a semaphore-protected
// section; the cost model (SyscallCosts) spreads CPU time around those
// commit points so the races play out exactly as in DESIGN.md §4.
//
// The inode table holds shared chunk handles (InodeChunk, kChunkInodes
// inodes each): copying a Vfs copies one handle per chunk, not the
// inodes, and the copies share every chunk until one of them writes an
// inode in it (inode_mut) or appends to it (alloc_inode). This is how a
// round starts from a RoundContext's staged template and how a
// checkpoint fork copies a machine-scale tree: 1,664 handle copies for
// 26,621 inodes.
//
// The Vfs is file-system state only: the round's fault injector and
// metrics registry attach to the kernel, which decides syscall-entry
// faults and which the path walker reports its metrics to.
//
// Setup methods (mkdir_p, create_file, ...) are instantaneous and meant
// for arranging the experiment's initial tree; they bypass permissions.
// create_in makes an inode by name in a directory the caller already
// holds, such as the one mkdir_p returned; the path-taking methods walk
// to the parent, then call it.
//
// Every path a syscall names is a Path (common/path.h), parsed once when
// its program was built: the op factories take one, the op and its
// walker hold handles to it, and the walk reads its stored components
// and count. A symlink's target is a Path too, so following a link
// copies a handle. No syscall copies, counts or re-parses a path; only
// Path's constructor and setup helpers such as mkdir_p run the component
// cursor.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/path.h"
#include "tocttou/fs/costs.h"
#include "tocttou/fs/inode.h"
#include "tocttou/fs/types.h"
#include "tocttou/sim/ids.h"
#include "tocttou/sim/service.h"

namespace tocttou::fs {

/// Credentials of a syscall issuer.
struct Creds {
  sim::Uid uid = 0;
  sim::Gid gid = 0;
  bool is_root() const { return uid == sim::kRootUid; }
};

struct OpenFile {
  Ino ino = kNoIno;
  OpenFlags flags;
};

class Vfs {
 public:
  explicit Vfs(SyscallCosts costs);
  ~Vfs();

  /// Copy-on-write copy: the same tree, fd tables, root and counters,
  /// sharing every inode chunk with `o` (one handle copy per chunk).
  Vfs(const Vfs& o);
  /// The same copy into an existing Vfs, reusing its table's capacity:
  /// a RoundContext copies its template into one Vfs every round, and
  /// a chunk the last round left shared costs nothing.
  Vfs& operator=(const Vfs& o);

  /// Checkpoint clone: the copy above, plus registering the Vfs object —
  /// one range — with `m`, so the `Vfs*` held by programs and in-flight
  /// ops remap to the clone. Nothing points into an inode: ops reach a
  /// semaphore through its inode's number.
  Vfs(const Vfs& o, sim::CloneMap& m);

  const SyscallCosts& costs() const { return costs_; }

  /// Returns the Vfs to its just-constructed state: a fresh root, empty
  /// fd tables and the new cost model. A reset Vfs hashes like a fresh
  /// one.
  void reset(SyscallCosts costs);

  // ---- instantaneous setup / inspection (no simulation cost) ----

  Ino root() const { return root_; }

  /// Creates every missing directory along `path`; returns the deepest.
  /// Walks the text with the component cursor, parsing no Path.
  Ino mkdir_p(std::string_view path, sim::Uid uid, sim::Gid gid,
              Mode mode = kModeDefaultDir);

  /// Creates a regular file (parent directories must exist).
  Ino create_file(const Path& path, sim::Uid uid, sim::Gid gid,
                  Mode mode = kModeDefaultFile, std::uint64_t size_bytes = 0);
  /// Creates an inode named `name` in directory `dir`, walking no path,
  /// and links it (nlink 1) in the same step. A fresh inode's chunk is
  /// unshared, so the result may be written.
  Inode& create_in(Ino dir, std::string_view name, FileType type,
                   sim::Uid uid, sim::Gid gid, Mode mode);

  /// Creates a symlink at `path` pointing to `target`.
  Ino create_symlink(const Path& path, Path target, sim::Uid uid,
                     sim::Gid gid);

  /// Resolves a path without simulation cost (for assertions/harness).
  /// follow: resolve a final symlink to its target.
  Result<Ino> lookup(const Path& path, bool follow = true) const;

  /// Reads an inode, which may be shared with other Vfs copies.
  const Inode& inode(Ino ino) const;
  /// Write access: first replaces the inode's chunk with a private copy
  /// if another Vfs still holds it. Call it only to write (a commit, or
  /// a semaphore acquire or release); read through inode(). It may move
  /// every inode of `ino`'s chunk, so never keep a `const Inode&` from
  /// inode() across it. A reference it returned stays valid across
  /// later writes of this Vfs (its chunk is private now), until the Vfs
  /// is copied.
  Inode& inode_mut(Ino ino);
  bool exists(const Path& path) const { return lookup(path, false).ok(); }

  /// Number of live inodes (for invariant tests).
  std::size_t inode_count() const { return next_ino_ - 1; }

  /// Permission checks (root bypasses everything).
  static bool may_read(const Inode& n, const Creds& c);
  static bool may_write(const Inode& n, const Creds& c);
  static bool may_exec(const Inode& n, const Creds& c);

  // ---- syscall op factories (used by programs; costs apply) ----
  // Output slots (`out`) must outlive the returned op; they are written
  // when the syscall completes. All paths must be absolute. A factory
  // keeps a handle to its Path (a count bump, no copy of the text): pass
  // a program's prebuilt Path, not a text to parse per call.

  std::unique_ptr<sim::ServiceOp> stat_op(Path path, StatBuf* out,
                                          Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> lstat_op(Path path, StatBuf* out,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> access_op(Path path,
                                            Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> open_op(Path path, OpenFlags flags,
                                          Mode mode, OpenResult* out);
  std::unique_ptr<sim::ServiceOp> close_op(int fd, Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> write_op(int fd, std::uint64_t bytes,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> read_op(int fd, std::uint64_t bytes,
                                          Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> rename_op(Path oldpath, Path newpath,
                                            Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> unlink_op(Path path,
                                            Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> symlink_op(Path target, Path linkpath,
                                             Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> chmod_op(Path path, Mode mode,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> chown_op(Path path, sim::Uid uid,
                                           sim::Gid gid,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> mkdir_op(Path path, Mode mode,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> readlink_op(Path path, std::string* out,
                                              Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> link_op(Path oldpath, Path newpath,
                                          Errno* err_out = nullptr);

  // fd-based variants: they operate on the open file description and do
  // NO path resolution, so a concurrent rename/unlink/symlink of the
  // name cannot redirect them — the classic TOCTTOU remedy (replace
  // chown(path) with fchown(fd); see the defended victims in
  // tocttou/programs and the defense bench).
  std::unique_ptr<sim::ServiceOp> fstat_op(int fd, StatBuf* out,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> fchmod_op(int fd, Mode mode,
                                            Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> fchown_op(int fd, sim::Uid uid,
                                            sim::Gid gid,
                                            Errno* err_out = nullptr);

  // ---- used by the op implementations ----

  struct WalkResult {
    Errno err = Errno::ok;
    Ino parent = kNoIno;          // directory holding the final component
    std::string_view final_name;  // final component: a view into `path`
    Ino target = kNoIno;          // resolved inode (kNoIno if absent)
    /// The walked path, held so that final_name outlives the argument
    /// (a Path built from a literal for the call, say); set with it.
    Path path;
  };

  /// Pure lookup of the prefix (all but the final component), following
  /// intermediate symlinks. Does NOT look up the final component. Reads
  /// the components `path` stored when it was parsed, and the symlink
  /// targets' own: the walk allocates nothing.
  WalkResult walk_prefix(Path path) const;

  /// Looks up `name` in directory `parent` (no cost, no perm checks).
  Ino lookup_in(Ino parent, std::string_view name) const;

  /// Number of path components after normalization (for cost
  /// computation): the count `path` stored when it was parsed.
  static std::size_t component_count(const Path& path) { return path.size(); }

  /// Constructs the next inode in place in the last chunk (copying that
  /// chunk first if it is shared, and starting a chunk when it is full).
  /// The inode is unlinked (nlink 0), and the result may be written.
  Inode& alloc_inode(FileType type, sim::Uid uid, sim::Gid gid, Mode mode);
  /// Commits a directory-entry insertion/removal (instantaneous).
  void link_entry(Ino dir, std::string_view name, Ino target);
  void unlink_entry(Ino dir, std::string_view name);
  /// Drops an open reference. Inodes are never physically erased within
  /// a round (orphans are modeled behaviour and tombstones keep in-flight
  /// Ino references valid); "freed" means nlink==0 && open_refs==0.
  void release_ref(Ino ino);

  /// Per-process fd tables.
  int fd_alloc(sim::Pid pid, Ino ino, OpenFlags flags);
  Result<OpenFile> fd_get(sim::Pid pid, int fd) const;
  Errno fd_close(sim::Pid pid, int fd);
  std::size_t open_fd_count(sim::Pid pid) const;

  /// Symlink-follow limit, as in Linux.
  static constexpr int kMaxSymlinkDepth = 8;

  /// Canonical state digest contribution (DESIGN.md §10): the inode
  /// table in ino order, the fd tables in (pid, fd) order, the next-ino
  /// counter, and the root. Inode sharing is excluded.
  void hash_state(StateHasher& h) const;

  /// Post-round invariant auditor. Cross-checks every inode's nlink
  /// against the directory entries referencing it, open_refs against the
  /// fd tables, entry targets against the inode table, and symlink
  /// well-formedness. Returns one human-readable line per violation
  /// (empty = healthy). It reads every inode; it is the reference that
  /// audit_since() must match.
  std::vector<std::string> audit() const;

  /// audit() of a copy of `base`, given that base.audit() came back
  /// empty: the same lines in the same order, read only where this Vfs
  /// may differ from `base` — every inode of a chunk no longer shared
  /// with `base` or past its end, the entries of those directories in
  /// both trees where they differ, both trees' fd tables, and the
  /// inodes whose entry or fd reference count changed. Exact because inode_mut and alloc_inode
  /// copy a shared chunk before writing it, so a chunk still shared with
  /// `base` holds `base`'s inodes as `base` audited them. A Vfs with
  /// fewer inodes than `base` is no copy of it and gets the full audit().
  std::vector<std::string> audit_since(const Vfs& base) const;

 private:
  void init_root();
  /// Adds the entry `name` -> `target` to directory `d` (which must not
  /// hold `name`), leaving link counts to the caller.
  static void insert_entry(Inode& d, std::string_view name, Ino target);

  /// Per-process descriptor table. `touched` distinguishes a pid that
  /// once had a table (even if every fd closed since) from one that
  /// never did, a distinction the canonical state digest makes. Slot
  /// index == fd; a slot with ino == kNoIno is free.
  struct FdTable {
    bool touched = false;
    int open_count = 0;
    std::vector<OpenFile> slots;
  };

  FdTable* table_of(sim::Pid pid);
  const FdTable* table_of(sim::Pid pid) const;

  /// The next inode number; inode_count() + 1.
  Ino next_ino_ = 1;
  SyscallCosts costs_;
  /// Inode table: inode `ino` is `chunks_[(ino - 1) / kChunkInodes]
  /// [(ino - 1) % kChunkInodes]`. Inos are dense (allocated 1, 2, ...)
  /// and never erased within a round (tombstones are modeled behaviour),
  /// so every chunk but the last is full and inode() is two dependent
  /// loads. Chunks are shared with every copy of this Vfs until written.
  std::vector<InodeChunk> chunks_;
  Ino root_ = kNoIno;
  std::vector<FdTable> fd_tables_;  // index = pid - 1
  std::size_t touched_tables_ = 0;  // fd_tables_ entries with touched set
};

}  // namespace tocttou::fs
