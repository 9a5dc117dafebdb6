#include "tocttou/fs/vfs.h"

#include <new>

#include "tocttou/common/strings.h"
#include "tocttou/sim/clone.h"

namespace tocttou::fs {

const char* to_string(FileType t) {
  switch (t) {
    case FileType::regular:
      return "regular";
    case FileType::directory:
      return "directory";
    case FileType::symlink:
      return "symlink";
  }
  return "?";
}

Vfs::Vfs(SyscallCosts costs) : costs_(costs) { init_root(); }

Vfs::Vfs(const Vfs& o, sim::CloneMap& m)
    : next_ino_(o.next_ino_),
      costs_(o.costs_),
      root_(o.root_),
      fd_tables_(o.fd_tables_),
      touched_tables_(o.touched_tables_),
      faults_(m.remap(o.faults_)),
      metrics_(m.remap(o.metrics_)),
      arena_reuses_(o.arena_reuses_) {
  m.add_range(&o, this, sizeof(Vfs));
  inodes_.reserve(o.inodes_.size());
  for (const auto& node : o.inodes_) {
    auto copy = std::make_unique<Inode>(*node, m);
    m.add_range(node.get(), copy.get(), sizeof(Inode));
    inodes_.push_back(std::move(copy));
  }
}

Vfs::~Vfs() = default;

void Vfs::init_root() {
  Inode& r = alloc_inode(FileType::directory, sim::kRootUid, sim::kRootGid,
                         kModeDefaultDir);
  r.nlink_ = 1;
  root_ = r.ino();
}

void Vfs::reset(SyscallCosts costs) {
  // Recycle the round's inode allocations into the arena before wiping
  // the table; alloc_inode() reinits them in place next round.
  for (auto& node : inodes_) {
    if (arena_.size() >= kMaxArena) break;
    arena_.push_back(std::move(node));
  }
  costs_ = costs;
  inodes_.clear();
  // The fd tables are arena-backed too: wipe contents, keep both the
  // outer table vector and every inner slot vector's capacity.
  for (FdTable& t : fd_tables_) {
    t.touched = false;
    t.open_count = 0;
    t.slots.clear();
  }
  touched_tables_ = 0;
  next_ino_ = 1;
  faults_ = nullptr;
  metrics_ = nullptr;
  init_root();
}

Inode& Vfs::alloc_inode(FileType type, sim::Uid uid, sim::Gid gid,
                        Mode mode) {
  const Ino ino = next_ino_++;
  std::unique_ptr<Inode> node;
  std::string sem_name =
      strfmt("i_sem:%llu", static_cast<unsigned long long>(ino));
  if (!arena_.empty()) {
    // Reinit a recycled allocation in place: destroy the stale inode,
    // then construct the new one into the same storage. The unique_ptr
    // is released around the destructor call so a throwing constructor
    // cannot lead to a double-destroy.
    node = std::move(arena_.back());
    arena_.pop_back();
    Inode* raw = node.release();
    raw->~Inode();
    ::new (raw) Inode(ino, type, uid, gid, mode, std::move(sem_name));
    node.reset(raw);
    ++arena_reuses_;
  } else {
    node = std::make_unique<Inode>(ino, type, uid, gid, mode,
                                   std::move(sem_name));
  }
  Inode& ref = *node;
  TOCTTOU_CHECK(ino == inodes_.size() + 1, "non-dense inode allocation");
  inodes_.push_back(std::move(node));
  return ref;
}

const Inode& Vfs::inode(Ino ino) const {
  TOCTTOU_CHECK(ino != kNoIno && ino <= inodes_.size(), "unknown inode");
  return *inodes_[ino - 1];
}

Inode& Vfs::inode_mut(Ino ino) {
  TOCTTOU_CHECK(ino != kNoIno && ino <= inodes_.size(), "unknown inode");
  return *inodes_[ino - 1];
}

Ino Vfs::lookup_in(Ino parent, std::string_view name) const {
  const Inode& dir = inode(parent);
  if (!dir.is_dir()) return kNoIno;
  return dir.lookup(name);
}

std::size_t Vfs::component_count(const std::string& path) {
  return count_path_components(path);
}

namespace {
struct ResolveOutcome {
  Errno err = Errno::ok;
  Ino ino = kNoIno;
};
}  // namespace

// Recursive resolution helper; `follow_final` resolves a final symlink.
// `path` is walked as string_view slices; it must stay alive for the
// duration of the call (symlink targets recursed into live in their
// inodes, which outlive the walk).
static ResolveOutcome resolve_rec(const Vfs& vfs, std::string_view path,
                                  bool follow_final, int depth) {
  if (depth > Vfs::kMaxSymlinkDepth) return {Errno::eloop, kNoIno};
  if (!is_absolute_path(path)) return {Errno::einval, kNoIno};
  const auto parts = split_path_views(path);
  Ino cur = vfs.root();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "..") return {Errno::einval, kNoIno};  // not modeled
    const Inode& dir = vfs.inode(cur);
    if (!dir.is_dir()) return {Errno::enotdir, kNoIno};
    const Ino child = vfs.lookup_in(cur, parts[i]);
    if (child == kNoIno) return {Errno::enoent, kNoIno};
    const Inode& cn = vfs.inode(child);
    const bool last = (i + 1 == parts.size());
    if (cn.is_symlink() && (!last || follow_final)) {
      const auto sub =
          resolve_rec(vfs, cn.symlink_target(), true, depth + 1);
      if (sub.err != Errno::ok) return sub;
      if (!last && !vfs.inode(sub.ino).is_dir()) {
        return {Errno::enotdir, kNoIno};
      }
      cur = sub.ino;
    } else {
      cur = child;
    }
  }
  return {Errno::ok, cur};
}

Result<Ino> Vfs::lookup(const std::string& path, bool follow) const {
  const auto out = resolve_rec(*this, path, follow, 0);
  if (out.err != Errno::ok) return out.err;
  return out.ino;
}

Vfs::WalkResult Vfs::walk_prefix(const std::string& path) const {
  WalkResult res;
  if (!is_absolute_path(path)) {
    res.err = Errno::einval;
    return res;
  }
  const auto parts = split_path_views(path);
  if (parts.empty()) {
    res.err = Errno::einval;  // operating on "/" itself is not modeled
    return res;
  }
  Ino cur = root_;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i] == "..") {
      res.err = Errno::einval;
      return res;
    }
    const Inode& dir = inode(cur);
    if (!dir.is_dir()) {
      res.err = Errno::enotdir;
      return res;
    }
    Ino child = lookup_in(cur, parts[i]);
    if (child == kNoIno) {
      res.err = Errno::enoent;
      return res;
    }
    const Inode& cn = inode(child);
    if (cn.is_symlink()) {
      const auto sub = resolve_rec(*this, cn.symlink_target(), true, 1);
      if (sub.err != Errno::ok) {
        res.err = sub.err;
        return res;
      }
      child = sub.ino;
    }
    if (!inode(child).is_dir()) {
      res.err = Errno::enotdir;
      return res;
    }
    cur = child;
  }
  const std::string_view final = parts.back();
  if (final == "..") {
    res.err = Errno::einval;
    return res;
  }
  if (!inode(cur).is_dir()) {
    res.err = Errno::enotdir;
    return res;
  }
  res.parent = cur;
  res.final_name = std::string(final);
  res.target = lookup_in(cur, final);
  return res;
}

Ino Vfs::mkdir_p(const std::string& path, sim::Uid uid, sim::Gid gid,
                 Mode mode) {
  TOCTTOU_CHECK(is_absolute_path(path), "mkdir_p requires an absolute path");
  Ino cur = root_;
  for (const auto& part : split_path(path)) {
    TOCTTOU_CHECK(part != "..", "'..' is not modeled");
    Ino child = lookup_in(cur, part);
    if (child == kNoIno) {
      Inode& n = alloc_inode(FileType::directory, uid, gid, mode);
      link_entry(cur, part, n.ino());
      child = n.ino();
    }
    TOCTTOU_CHECK(inode(child).is_dir(), "mkdir_p path crosses a non-dir");
    cur = child;
  }
  return cur;
}

Ino Vfs::create_file(const std::string& path, sim::Uid uid, sim::Gid gid,
                     Mode mode, std::uint64_t size_bytes) {
  const auto walk = walk_prefix(path);
  TOCTTOU_CHECK(walk.err == Errno::ok, "create_file: bad parent path");
  TOCTTOU_CHECK(walk.target == kNoIno, "create_file: path already exists");
  Inode& n = alloc_inode(FileType::regular, uid, gid, mode);
  n.size_bytes_ = size_bytes;
  link_entry(walk.parent, walk.final_name, n.ino());
  return n.ino();
}

Ino Vfs::create_symlink(const std::string& path, const std::string& target,
                        sim::Uid uid, sim::Gid gid) {
  const auto walk = walk_prefix(path);
  TOCTTOU_CHECK(walk.err == Errno::ok, "create_symlink: bad parent path");
  TOCTTOU_CHECK(walk.target == kNoIno, "create_symlink: path already exists");
  Inode& n = alloc_inode(FileType::symlink, uid, gid, 0777);
  n.symlink_target_ = target;
  link_entry(walk.parent, walk.final_name, n.ino());
  return n.ino();
}

void Vfs::link_entry(Ino dir, const std::string& name, Ino target) {
  Inode& d = inode_mut(dir);
  TOCTTOU_CHECK(d.is_dir(), "link_entry target is not a directory");
  TOCTTOU_CHECK(d.lookup(name) == kNoIno, "link_entry: name exists");
  d.add_entry(name, target);
  ++inode_mut(target).nlink_;
}

void Vfs::unlink_entry(Ino dir, const std::string& name) {
  Inode& d = inode_mut(dir);
  auto it = d.entries_.find(name);
  TOCTTOU_CHECK(it != d.entries_.end(), "unlink_entry: no such name");
  Inode& t = inode_mut(it->second);
  --t.nlink_;
  TOCTTOU_CHECK(t.nlink_ >= 0, "negative nlink");
  d.remove_entry(it);
  // Inodes are never physically erased within a round: orphan inodes
  // (nlink 0 with open fds) are a modeled behaviour, and keeping
  // tombstones keeps Ino references held by in-flight ops valid.
}

void Vfs::release_ref(Ino ino) {
  Inode& n = inode_mut(ino);
  --n.open_refs_;
  TOCTTOU_CHECK(n.open_refs_ >= 0, "negative open_refs");
}

bool Vfs::may_read(const Inode& n, const Creds& c) {
  if (c.is_root()) return true;
  if (n.uid() == c.uid) return (n.mode() & 0400) != 0;
  if (n.gid() == c.gid) return (n.mode() & 0040) != 0;
  return (n.mode() & 0004) != 0;
}

bool Vfs::may_write(const Inode& n, const Creds& c) {
  if (c.is_root()) return true;
  if (n.uid() == c.uid) return (n.mode() & 0200) != 0;
  if (n.gid() == c.gid) return (n.mode() & 0020) != 0;
  return (n.mode() & 0002) != 0;
}

bool Vfs::may_exec(const Inode& n, const Creds& c) {
  if (c.is_root()) return true;
  if (n.uid() == c.uid) return (n.mode() & 0100) != 0;
  if (n.gid() == c.gid) return (n.mode() & 0010) != 0;
  return (n.mode() & 0001) != 0;
}

Vfs::FdTable* Vfs::table_of(sim::Pid pid) {
  if (pid == sim::kNoPid || fd_tables_.size() < pid) return nullptr;
  FdTable& t = fd_tables_[pid - 1];
  return t.touched ? &t : nullptr;
}

const Vfs::FdTable* Vfs::table_of(sim::Pid pid) const {
  if (pid == sim::kNoPid || fd_tables_.size() < pid) return nullptr;
  const FdTable& t = fd_tables_[pid - 1];
  return t.touched ? &t : nullptr;
}

int Vfs::fd_alloc(sim::Pid pid, Ino ino, OpenFlags flags) {
  TOCTTOU_CHECK(pid != sim::kNoPid, "fd_alloc for the null pid");
  if (fd_tables_.size() < pid) fd_tables_.resize(pid);
  FdTable& t = fd_tables_[pid - 1];
  if (!t.touched) {
    t.touched = true;
    ++touched_tables_;
  }
  // POSIX: the lowest free descriptor. 0..2 are notionally stdio; slot
  // index == fd, so scan for the first free slot at or above 3.
  if (t.slots.size() < 3) t.slots.resize(3);
  std::size_t fd = 3;
  while (fd < t.slots.size() && t.slots[fd].ino != kNoIno) ++fd;
  if (fd == t.slots.size()) t.slots.emplace_back();
  t.slots[fd] = OpenFile{ino, flags};
  ++t.open_count;
  ++inode_mut(ino).open_refs_;
  return static_cast<int>(fd);
}

Result<OpenFile> Vfs::fd_get(sim::Pid pid, int fd) const {
  const FdTable* t = table_of(pid);
  if (t == nullptr) return Errno::ebadf;
  if (fd < 0 || static_cast<std::size_t>(fd) >= t->slots.size() ||
      t->slots[static_cast<std::size_t>(fd)].ino == kNoIno) {
    return Errno::ebadf;
  }
  return t->slots[static_cast<std::size_t>(fd)];
}

Errno Vfs::fd_close(sim::Pid pid, int fd) {
  FdTable* t = table_of(pid);
  if (t == nullptr) return Errno::ebadf;
  if (fd < 0 || static_cast<std::size_t>(fd) >= t->slots.size() ||
      t->slots[static_cast<std::size_t>(fd)].ino == kNoIno) {
    return Errno::ebadf;
  }
  OpenFile& slot = t->slots[static_cast<std::size_t>(fd)];
  release_ref(slot.ino);
  slot = OpenFile{};
  --t->open_count;
  return Errno::ok;
}

std::size_t Vfs::open_fd_count(sim::Pid pid) const {
  const FdTable* t = table_of(pid);
  return t == nullptr ? 0 : static_cast<std::size_t>(t->open_count);
}

void Vfs::hash_state(StateHasher& h) const {
  h.u64(next_ino_);
  h.u64(root_);
  h.u64(inodes_.size());
  for (const auto& node : inodes_) node->hash_state(h);
  // fd tables: the domain (which pids have tables, which fds are open,
  // what they point at) is sim state. Two trees that are equal but whose
  // open-fd tables differ MUST hash differently — a later write/fchown
  // through the surviving fd diverges. The digest reproduces the old
  // map-of-maps byte stream exactly: touched tables in pid order, open
  // slots in fd order.
  h.u64(touched_tables_);
  for (std::size_t i = 0; i < fd_tables_.size(); ++i) {
    const FdTable& t = fd_tables_[i];
    if (!t.touched) continue;
    h.u64(i + 1);  // pid
    h.u64(static_cast<std::uint64_t>(t.open_count));
    for (std::size_t fd = 0; fd < t.slots.size(); ++fd) {
      const OpenFile& of = t.slots[fd];
      if (of.ino == kNoIno) continue;
      h.i64(static_cast<std::int64_t>(fd));
      h.u64(of.ino);
      h.boolean(of.flags.write);
      h.boolean(of.flags.create);
      h.boolean(of.flags.truncate);
      h.boolean(of.flags.excl);
    }
  }
}

std::vector<std::string> Vfs::audit() const {
  std::vector<std::string> violations;
  const auto report = [&violations](std::string msg) {
    violations.push_back(std::move(msg));
  };

  // Reference counts observed by walking every structure. Inos are dense,
  // so the counters are flat arrays sized once up front — a 10^5-inode
  // round audits without a single mid-walk allocation.
  const auto known = [this](Ino ino) {
    return ino != kNoIno && ino <= inodes_.size();
  };
  std::vector<int> entry_refs(inodes_.size() + 1, 0);
  std::vector<int> fd_refs(inodes_.size() + 1, 0);
  entry_refs[root_] = 1;  // the root is self-anchored (nlink 1, no entry)

  for (std::size_t i = 0; i < inodes_.size(); ++i) {
    const Ino ino = i + 1;
    const Inode& node = *inodes_[i];
    if (!node.is_dir()) continue;
    for (const auto& [name, target] : node.entries()) {
      if (!known(target)) {
        report(strfmt("dangling entry: dir %llu '%s' -> unknown inode %llu",
                      static_cast<unsigned long long>(ino), name.c_str(),
                      static_cast<unsigned long long>(target)));
        continue;
      }
      ++entry_refs[target];
    }
  }
  for (std::size_t i = 0; i < fd_tables_.size(); ++i) {
    const FdTable& t = fd_tables_[i];
    if (!t.touched) continue;
    for (std::size_t fd = 0; fd < t.slots.size(); ++fd) {
      const OpenFile& file = t.slots[fd];
      if (file.ino == kNoIno) continue;
      if (!known(file.ino)) {
        report(strfmt("dangling fd: pid %d fd %d -> unknown inode %llu",
                      static_cast<int>(i + 1), static_cast<int>(fd),
                      static_cast<unsigned long long>(file.ino)));
        continue;
      }
      ++fd_refs[file.ino];
    }
  }

  for (std::size_t i = 0; i < inodes_.size(); ++i) {
    const Ino ino = i + 1;
    const Inode& node = *inodes_[i];
    const int expect_nlink = entry_refs[ino];
    if (node.nlink() != expect_nlink) {
      report(strfmt("nlink mismatch: inode %llu has nlink %d but %d "
                    "directory entr%s reference it",
                    static_cast<unsigned long long>(ino), node.nlink(),
                    expect_nlink, expect_nlink == 1 ? "y" : "ies"));
    }
    const int expect_refs = fd_refs[ino];
    if (node.open_refs() != expect_refs) {
      report(strfmt("open_refs mismatch: inode %llu has open_refs %d but "
                    "%d fd-table entr%s reference it",
                    static_cast<unsigned long long>(ino), node.open_refs(),
                    expect_refs, expect_refs == 1 ? "y" : "ies"));
    }
    if (node.nlink() < 0) {
      report(strfmt("negative nlink on inode %llu",
                    static_cast<unsigned long long>(ino)));
    }
    if (node.open_refs() < 0) {
      report(strfmt("negative open_refs on inode %llu",
                    static_cast<unsigned long long>(ino)));
    }
    if (node.is_symlink() && node.symlink_target().empty()) {
      report(strfmt("symlink inode %llu has an empty target",
                    static_cast<unsigned long long>(ino)));
    }
  }
  return violations;
}

}  // namespace tocttou::fs
