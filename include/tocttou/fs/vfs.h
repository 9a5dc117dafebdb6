// The in-memory Unix-style virtual file system.
//
// Vfs owns the inode table, the per-process file-descriptor tables, and
// the factories producing syscall ServiceOps. Metadata mutations are
// instantaneous at their commit point inside a semaphore-protected
// section; the cost model (SyscallCosts) spreads CPU time around those
// commit points so the races play out exactly as in DESIGN.md §4.
//
// Setup methods (mkdir_p, create_file, ...) are instantaneous and meant
// for arranging the experiment's initial tree; they bypass permissions.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/fs/costs.h"
#include "tocttou/fs/inode.h"
#include "tocttou/fs/types.h"
#include "tocttou/sim/ids.h"
#include "tocttou/sim/service.h"

namespace tocttou::sim {
class FaultInjector;
}  // namespace tocttou::sim

namespace tocttou::metrics {
class Registry;
}  // namespace tocttou::metrics

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

  /// Checkpoint clone: deep-copies the whole filesystem (inode table,
  /// fd tables, root, counters) and registers the Vfs object plus every
  /// inode with `m` so interior pointers — notably `Semaphore*` held by
  /// in-flight path walkers — remap to the clone. The injector and
  /// metrics sinks are remapped through `m` too (they are cloned by the
  /// owning RoundRun before the Vfs). The recycling arena starts empty:
  /// it is a pure allocation cache with no observable state.
  Vfs(const Vfs& o, sim::CloneMap& m);

  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  const SyscallCosts& costs() const { return costs_; }

  /// Returns the Vfs to its just-constructed state (fresh root, empty fd
  /// tables, detached injector/metrics, new cost model) while RECYCLING
  /// the inode allocations of the previous round into an arena pool that
  /// alloc_inode() draws from. This is what lets a RoundContext run
  /// thousands of explorer leaves without re-allocating the world; a
  /// reset Vfs is observationally identical to a fresh one (locked down
  /// by the context-reuse ctest).
  void reset(SyscallCosts costs);

  /// Inode allocations served from the recycled arena instead of the
  /// heap since construction (throughput counter for explore metrics).
  std::uint64_t arena_reuses() const { return arena_reuses_; }

  // ---- instantaneous setup / inspection (no simulation cost) ----

  Ino root() const { return root_; }

  /// Creates every missing directory along `path`; returns the deepest.
  Ino mkdir_p(const std::string& path, sim::Uid uid, sim::Gid gid,
              Mode mode = kModeDefaultDir);

  /// Creates a regular file (parent directories must exist).
  Ino create_file(const std::string& path, sim::Uid uid, sim::Gid gid,
                  Mode mode = kModeDefaultFile, std::uint64_t size_bytes = 0);

  /// Creates a symlink at `path` pointing to `target`.
  Ino create_symlink(const std::string& path, const std::string& target,
                     sim::Uid uid, sim::Gid gid);

  /// Resolves a path without simulation cost (for assertions/harness).
  /// follow: resolve a final symlink to its target.
  Result<Ino> lookup(const std::string& path, bool follow = true) const;

  const Inode& inode(Ino ino) const;
  Inode& inode_mut(Ino ino);
  bool exists(const std::string& path) const { return lookup(path, false).ok(); }

  /// Number of live inodes (for invariant tests).
  std::size_t inode_count() const { return inodes_.size(); }

  /// Permission checks (root bypasses everything).
  static bool may_read(const Inode& n, const Creds& c);
  static bool may_write(const Inode& n, const Creds& c);
  static bool may_exec(const Inode& n, const Creds& c);

  // ---- syscall op factories (used by programs; costs apply) ----
  // Output slots (`out`) must outlive the returned op; they are written
  // when the syscall completes. All paths must be absolute.

  std::unique_ptr<sim::ServiceOp> stat_op(std::string path, StatBuf* out,
                                          Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> lstat_op(std::string path, StatBuf* out,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> access_op(std::string path,
                                            Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> open_op(std::string path, OpenFlags flags,
                                          Mode mode, OpenResult* out);
  std::unique_ptr<sim::ServiceOp> close_op(int fd, Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> write_op(int fd, std::uint64_t bytes,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> read_op(int fd, std::uint64_t bytes,
                                          Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> rename_op(std::string oldpath,
                                            std::string newpath,
                                            Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> unlink_op(std::string path,
                                            Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> symlink_op(std::string target,
                                             std::string linkpath,
                                             Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> chmod_op(std::string path, Mode mode,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> chown_op(std::string path, sim::Uid uid,
                                           sim::Gid gid,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> mkdir_op(std::string path, Mode mode,
                                           Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> readlink_op(std::string path,
                                              std::string* out,
                                              Errno* err_out = nullptr);
  std::unique_ptr<sim::ServiceOp> link_op(std::string oldpath,
                                          std::string newpath,
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
    Ino parent = kNoIno;       // directory holding the final component
    std::string final_name;    // final component name
    Ino target = kNoIno;       // resolved inode (kNoIno if absent)
  };

  /// Pure lookup of the prefix (all but the final component), following
  /// intermediate symlinks. Does NOT look up the final component.
  /// Components are walked as std::string_view slices of `path` — no
  /// temporary std::string is minted per component.
  WalkResult walk_prefix(const std::string& path) const;

  /// Looks up `name` in directory `parent` (no cost, no perm checks).
  Ino lookup_in(Ino parent, std::string_view name) const;

  /// Number of path components after normalization (for cost
  /// computation). Allocation-free.
  static std::size_t component_count(const std::string& path);

  Inode& alloc_inode(FileType type, sim::Uid uid, sim::Gid gid, Mode mode);
  /// Commits a directory-entry insertion/removal (instantaneous).
  void link_entry(Ino dir, const std::string& name, Ino target);
  void unlink_entry(Ino dir, const std::string& name);
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

  /// Attaches the round's fault injector (nullptr = none). Consulted by
  /// the op factories to decide whether syscalls should fail at entry;
  /// must outlive the Vfs.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }
  sim::FaultInjector* fault_injector() const { return faults_; }

  /// Attaches a metrics registry (nullptr = none; the default). The path
  /// walker records walk depth, symlink restarts, and slow-path lookups.
  /// Must outlive the Vfs. Zero overhead when unset.
  void set_metrics(metrics::Registry* metrics) { metrics_ = metrics; }
  metrics::Registry* metrics() const { return metrics_; }

  /// Canonical state digest contribution (DESIGN.md §10): the inode
  /// table in ino order, the fd tables in (pid, fd) order, the next-ino
  /// counter, and the root. The arena, metrics, and fault-injector
  /// observers are excluded (a fault injector makes the surrounding
  /// round unhashable at the Kernel/RoundRun level, not here).
  void hash_state(StateHasher& h) const;

  /// Post-round invariant auditor. Cross-checks every inode's nlink
  /// against the directory entries referencing it, open_refs against the
  /// fd tables, entry targets against the inode table, and symlink
  /// well-formedness. Returns one human-readable line per violation
  /// (empty = healthy).
  std::vector<std::string> audit() const;

 private:
  void init_root();

  /// Per-process descriptor table. `touched` distinguishes a pid that
  /// once had a table (even if every fd closed since) from one that
  /// never did, a distinction the canonical state digest makes. Slot
  /// index == fd; a slot with ino == kNoIno is free. reset() keeps the
  /// slot vectors' capacity, so a RoundContext re-runs rounds without
  /// reallocating any fd table.
  struct FdTable {
    bool touched = false;
    int open_count = 0;
    std::vector<OpenFile> slots;
  };

  FdTable* table_of(sim::Pid pid);
  const FdTable* table_of(sim::Pid pid) const;

  Ino next_ino_ = 1;
  SyscallCosts costs_;
  /// Inode table, index == ino - 1. Inos are dense (allocated 1, 2, ...)
  /// and never erased within a round (tombstones are modeled behaviour),
  /// so a vector gives O(1) inode() lookup.
  std::vector<std::unique_ptr<Inode>> inodes_;
  Ino root_ = kNoIno;
  std::vector<FdTable> fd_tables_;  // index = pid - 1
  std::size_t touched_tables_ = 0;  // fd_tables_ entries with touched set
  sim::FaultInjector* faults_ = nullptr;
  metrics::Registry* metrics_ = nullptr;
  /// Recycled Inode allocations (see reset()). alloc_inode() reinits one
  /// in place instead of hitting the heap; bounded so a pathological
  /// round cannot pin memory forever. The cap accommodates the
  /// multi-tenant scale model's O(10^5)-inode rounds.
  std::vector<std::unique_ptr<Inode>> arena_;
  std::uint64_t arena_reuses_ = 0;
  static constexpr std::size_t kMaxArena = 131072;
};

}  // namespace tocttou::fs
