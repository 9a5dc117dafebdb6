#include "tocttou/fs/vfs.h"

#include <algorithm>

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

namespace {

/// Calls f(inode) for every inode of the table, in ino order.
template <class F>
void for_each_inode(const std::vector<InodeChunk>& chunks, F&& f) {
  for (const InodeChunk& chunk : chunks) {
    for (std::size_t k = 0; k < chunk.size(); ++k) f(chunk[k]);
  }
}

}  // namespace

Vfs::Vfs(SyscallCosts costs) : costs_(costs) { init_root(); }

Vfs::Vfs(const Vfs& o) : costs_(o.costs_) { *this = o; }

Vfs& Vfs::operator=(const Vfs& o) {
  next_ino_ = o.next_ino_;
  costs_ = o.costs_;
  // Keep the source's spare capacity, so that the first chunk a round or
  // fork starts does not reallocate (and double) a machine-scale table.
  chunks_.reserve(o.chunks_.capacity());
  chunks_ = o.chunks_;
  root_ = o.root_;
  fd_tables_ = o.fd_tables_;
  touched_tables_ = o.touched_tables_;
  return *this;
}

Vfs::Vfs(const Vfs& o, sim::CloneMap& m) : Vfs(o) {
  m.add_range(&o, this, sizeof(Vfs));
}

Vfs::~Vfs() = default;

void Vfs::init_root() {
  Inode& r = alloc_inode(FileType::directory, sim::kRootUid, sim::kRootGid,
                         kModeDefaultDir);
  r.nlink_ = 1;
  root_ = r.ino();
}

void Vfs::reset(SyscallCosts costs) { *this = Vfs(costs); }

Inode& Vfs::alloc_inode(FileType type, sim::Uid uid, sim::Gid gid,
                        Mode mode) {
  if (chunks_.empty() || chunks_.back().full()) chunks_.emplace_back();
  return chunks_.back().emplace_back(next_ino_++, type, uid, gid, mode);
}

const Inode& Vfs::inode(Ino ino) const {
  TOCTTOU_CHECK(ino != kNoIno && ino < next_ino_, "unknown inode");
  return chunks_[(ino - 1) / kChunkInodes][(ino - 1) % kChunkInodes];
}

Inode& Vfs::inode_mut(Ino ino) {
  TOCTTOU_CHECK(ino != kNoIno && ino < next_ino_, "unknown inode");
  return chunks_[(ino - 1) / kChunkInodes].mut((ino - 1) % kChunkInodes);
}

Ino Vfs::lookup_in(Ino parent, std::string_view name) const {
  const Inode& dir = inode(parent);
  if (!dir.is_dir()) return kNoIno;
  return dir.lookup(name);
}

namespace {
struct ResolveOutcome {
  Errno err = Errno::ok;
  Ino ino = kNoIno;
};
}  // namespace

// Recursive resolution helper; `follow_final` resolves a final symlink.
// Reads the components `path` stored when it was parsed; a symlink's
// target is a Path of its own, recursed into where its inode holds it.
static ResolveOutcome resolve_rec(const Vfs& vfs, const Path& path,
                                  bool follow_final, int depth) {
  if (depth > Vfs::kMaxSymlinkDepth) return {Errno::eloop, kNoIno};
  if (!path.absolute()) return {Errno::einval, kNoIno};
  Ino cur = vfs.root();
  const std::size_t n = path.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view part = path[i];
    if (part == "..") return {Errno::einval, kNoIno};  // not modeled
    const Inode& dir = vfs.inode(cur);
    if (!dir.is_dir()) return {Errno::enotdir, kNoIno};
    const Ino child = vfs.lookup_in(cur, part);
    if (child == kNoIno) return {Errno::enoent, kNoIno};
    const Inode& cn = vfs.inode(child);
    const bool last = i + 1 == n;
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

Result<Ino> Vfs::lookup(const Path& path, bool follow) const {
  const auto out = resolve_rec(*this, path, follow, 0);
  if (out.err != Errno::ok) return out.err;
  return out.ino;
}

Vfs::WalkResult Vfs::walk_prefix(Path path) const {
  WalkResult res;
  const std::size_t n = path.size();
  if (!path.absolute() || n == 0) {
    res.err = Errno::einval;  // operating on "/" itself is not modeled
    return res;
  }
  Ino cur = root_;
  const Inode* dir = &inode(cur);
  // Every component but the last names a directory to descend into.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::string_view part = path[i];
    if (part == "..") {
      res.err = Errno::einval;
      return res;
    }
    if (!dir->is_dir()) {
      res.err = Errno::enotdir;
      return res;
    }
    Ino child = dir->lookup(part);
    if (child == kNoIno) {
      res.err = Errno::enoent;
      return res;
    }
    dir = &inode(child);
    if (dir->is_symlink()) {
      const auto sub = resolve_rec(*this, dir->symlink_target(), true, 1);
      if (sub.err != Errno::ok) {
        res.err = sub.err;
        return res;
      }
      child = sub.ino;
      dir = &inode(child);
    }
    if (!dir->is_dir()) {
      res.err = Errno::enotdir;
      return res;
    }
    cur = child;
  }
  const std::string_view final = path.back();
  if (final == "..") {
    res.err = Errno::einval;
    return res;
  }
  if (!dir->is_dir()) {
    res.err = Errno::enotdir;
    return res;
  }
  res.parent = cur;
  res.final_name = final;
  res.target = dir->lookup(final);
  res.path = std::move(path);  // keeps final_name's block
  return res;
}

Ino Vfs::mkdir_p(std::string_view path, sim::Uid uid, sim::Gid gid,
                 Mode mode) {
  TOCTTOU_CHECK(is_absolute_path(path), "mkdir_p requires an absolute path");
  Ino cur = root_;
  std::size_t pos = 0;
  for (std::string_view part = next_path_component(path, pos);
       !part.empty(); part = next_path_component(path, pos)) {
    TOCTTOU_CHECK(part != "..", "'..' is not modeled");
    Ino child = lookup_in(cur, part);
    if (child == kNoIno) {
      child = create_in(cur, part, FileType::directory, uid, gid, mode).ino();
    }
    TOCTTOU_CHECK(inode(child).is_dir(), "mkdir_p path crosses a non-dir");
    cur = child;
  }
  return cur;
}

Inode& Vfs::create_in(Ino dir, std::string_view name, FileType type,
                      sim::Uid uid, sim::Gid gid, Mode mode) {
  // Allocating first leaves the new inode's chunk private, so writing
  // `dir` (copying its chunk if shared) cannot move `n`.
  Inode& n = alloc_inode(type, uid, gid, mode);
  insert_entry(inode_mut(dir), name, n.ino());
  n.nlink_ = 1;
  return n;
}

Ino Vfs::create_file(const Path& path, sim::Uid uid, sim::Gid gid,
                     Mode mode, std::uint64_t size_bytes) {
  const auto walk = walk_prefix(path);
  TOCTTOU_CHECK(walk.err == Errno::ok, "create_file: bad parent path");
  Inode& n = create_in(walk.parent, walk.final_name, FileType::regular, uid,
                       gid, mode);
  n.size_bytes_ = size_bytes;
  return n.ino();
}

Ino Vfs::create_symlink(const Path& path, Path target, sim::Uid uid,
                        sim::Gid gid) {
  const auto walk = walk_prefix(path);
  TOCTTOU_CHECK(walk.err == Errno::ok, "create_symlink: bad parent path");
  Inode& n = create_in(walk.parent, walk.final_name, FileType::symlink, uid,
                       gid, 0777);
  n.symlink_target_ = std::move(target);
  return n.ino();
}

void Vfs::insert_entry(Inode& d, std::string_view name, Ino target) {
  TOCTTOU_CHECK(d.is_dir(), "link_entry target is not a directory");
  // A name above every entry appends without a search.
  const auto at = d.entries_.empty() || d.entries_.back().first < name
                      ? d.entries_.cend()
                      : d.slot(name);
  TOCTTOU_CHECK(at == d.entries_.end() || at->first != name,
                "link_entry: name exists");
  d.entries_.emplace(at, name, target);
}

void Vfs::link_entry(Ino dir, std::string_view name, Ino target) {
  insert_entry(inode_mut(dir), name, target);
  ++inode_mut(target).nlink_;
}

void Vfs::unlink_entry(Ino dir, std::string_view name) {
  Inode& d = inode_mut(dir);
  const auto it = d.slot(name);
  TOCTTOU_CHECK(it != d.entries_.end() && it->first == name,
                "unlink_entry: no such name");
  // `d`'s chunk is private now, so this write cannot move `d`.
  Inode& t = inode_mut(it->second);
  --t.nlink_;
  TOCTTOU_CHECK(t.nlink_ >= 0, "negative nlink");
  d.entries_.erase(it);
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
  h.u64(inode_count());
  for_each_inode(chunks_, [&h](const Inode& node) { node.hash_state(h); });
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

namespace {

/// The per-inode half of the audit, shared by audit() and audit_since():
/// checks one inode against the directory entries (`entry_refs`) and
/// fd-table slots (`fd_refs`) that reference it.
void audit_inode(Ino ino, const Inode& node, int entry_refs, int fd_refs,
                 std::vector<std::string>& violations) {
  const auto id = static_cast<unsigned long long>(ino);
  if (node.nlink() != entry_refs) {
    violations.push_back(strfmt("nlink mismatch: inode %llu has nlink %d but "
                                "%d directory entr%s reference it",
                                id, node.nlink(), entry_refs,
                                entry_refs == 1 ? "y" : "ies"));
  }
  if (node.open_refs() != fd_refs) {
    violations.push_back(strfmt("open_refs mismatch: inode %llu has "
                                "open_refs %d but %d fd-table entr%s "
                                "reference it",
                                id, node.open_refs(), fd_refs,
                                fd_refs == 1 ? "y" : "ies"));
  }
  if (node.nlink() < 0) {
    violations.push_back(strfmt("negative nlink on inode %llu", id));
  }
  if (node.open_refs() < 0) {
    violations.push_back(strfmt("negative open_refs on inode %llu", id));
  }
  if (node.is_symlink() && node.symlink_target().empty()) {
    violations.push_back(
        strfmt("symlink inode %llu has an empty target", id));
  }
}

std::string dangling_entry(Ino dir, const std::string& name, Ino target) {
  return strfmt("dangling entry: dir %llu '%s' -> unknown inode %llu",
                static_cast<unsigned long long>(dir), name.c_str(),
                static_cast<unsigned long long>(target));
}

std::string dangling_fd(std::size_t pid_index, std::size_t fd, Ino ino) {
  return strfmt("dangling fd: pid %d fd %d -> unknown inode %llu",
                static_cast<int>(pid_index + 1), static_cast<int>(fd),
                static_cast<unsigned long long>(ino));
}

}  // namespace

std::vector<std::string> Vfs::audit() const {
  std::vector<std::string> violations;

  // One pass over the inodes and the fd tables leaves each inode's
  // balance: its nlink and open_refs less the directory entries and
  // fd-table slots found to reference it. Inos are dense, so the
  // balances are flat arrays sized once up front — a 10^5-inode round
  // audits without a single mid-walk allocation — and only an inode
  // whose balance is off, or a symlink with an empty target, is read
  // again for its lines.
  const std::size_t count = inode_count();
  const auto known = [count](Ino ino) {
    return ino != kNoIno && ino <= count;
  };
  std::vector<int> nlink_left(count + 1, 0);
  std::vector<int> open_left(count + 1, 0);
  std::vector<Ino> empty_links;
  nlink_left[root_] = -1;  // the root is self-anchored (nlink 1, no entry)

  for_each_inode(chunks_, [&](const Inode& node) {
    nlink_left[node.ino()] += node.nlink();
    open_left[node.ino()] += node.open_refs();
    if (node.is_symlink() && node.symlink_target().empty()) {
      empty_links.push_back(node.ino());
    }
    if (!node.is_dir()) return;
    for (const auto& [name, target] : node.entries()) {
      if (!known(target)) {
        violations.push_back(dangling_entry(node.ino(), name, target));
        continue;
      }
      --nlink_left[target];
    }
  });
  for (std::size_t i = 0; i < fd_tables_.size(); ++i) {
    const FdTable& t = fd_tables_[i];
    if (!t.touched) continue;
    for (std::size_t fd = 0; fd < t.slots.size(); ++fd) {
      const OpenFile& file = t.slots[fd];
      if (file.ino == kNoIno) continue;
      if (!known(file.ino)) {
        violations.push_back(dangling_fd(i, fd, file.ino));
        continue;
      }
      --open_left[file.ino];
    }
  }

  // A negative nlink or open_refs never balances (references count at
  // least zero), so the balances and the empty links find every inode
  // audit_inode has lines for.
  auto empty_link = empty_links.begin();
  for (Ino ino = 1; ino <= count; ++ino) {
    const bool empty =
        empty_link != empty_links.end() && *empty_link == ino;
    if (nlink_left[ino] == 0 && open_left[ino] == 0 && !empty) continue;
    if (empty) ++empty_link;
    const Inode& node = inode(ino);
    audit_inode(ino, node, node.nlink() - nlink_left[ino],
                node.open_refs() - open_left[ino], violations);
  }
  return violations;
}

std::vector<std::string> Vfs::audit_since(const Vfs& base) const {
  // Fewer inodes than `base`: not a copy of it (reset, say), and base's
  // entries would index past our table. Audit it whole.
  if (inode_count() < base.inode_count()) return audit();
  std::vector<std::string> violations;
  const std::size_t count = inode_count();
  const auto known = [count](Ino ino) {
    return ino != kNoIno && ino <= count;
  };

  // One record per reference that differs from `base` (+1 here, -1 in
  // base) and one per inode that may have changed; summed per inode
  // below. A chunk still shared with base holds exactly base's inodes,
  // because inode_mut and alloc_inode copy a shared chunk before
  // writing it. So only the entries of directories in copied chunks can
  // differ, and every entry of a directory in a shared chunk has a
  // target known to base, hence to us. Every inode of a copied chunk
  // counts as changed: an unchanged one adds equal records to both
  // sides, so a directory whose entries equal base's adds none.
  struct Delta {
    Ino ino;
    int entries;
    int fds;
  };
  std::vector<Delta> deltas;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const InodeChunk& chunk = chunks_[c];
    if (c < base.chunks_.size() && chunk.shares(base.chunks_[c])) continue;
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      const Inode& now = chunk[k];
      deltas.push_back({now.ino(), 0, 0});
      if (now.ino() <= base.inode_count()) {
        // Entries equal to base's would add equal records to both sides
        // (and their targets are known to base).
        const Inode& before = base.inode(now.ino());
        if (before.entries() == now.entries()) continue;
        for (const auto& entry : before.entries()) {
          deltas.push_back({entry.second, -1, 0});
        }
      }
      if (!now.is_dir()) continue;
      for (const auto& [name, target] : now.entries()) {
        if (!known(target)) {
          violations.push_back(dangling_entry(now.ino(), name, target));
          continue;
        }
        deltas.push_back({target, 1, 0});
      }
    }
  }
  // The fd tables are small (one slot per open file): read both whole.
  for (const FdTable& t : base.fd_tables_) {
    for (const OpenFile& file : t.slots) {
      if (file.ino != kNoIno) deltas.push_back({file.ino, 0, -1});
    }
  }
  for (std::size_t i = 0; i < fd_tables_.size(); ++i) {
    const FdTable& t = fd_tables_[i];
    if (!t.touched) continue;
    for (std::size_t fd = 0; fd < t.slots.size(); ++fd) {
      const OpenFile& file = t.slots[fd];
      if (file.ino == kNoIno) continue;
      if (!known(file.ino)) {
        violations.push_back(dangling_fd(i, fd, file.ino));
        continue;
      }
      deltas.push_back({file.ino, 0, 1});
    }
  }

  // base's audit was clean, so each of its inodes' nlink and open_refs
  // equal the references base holds to it; add what changed since.
  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.ino < b.ino; });
  for (std::size_t k = 0; k < deltas.size();) {
    const Ino ino = deltas[k].ino;
    int entry_refs = 0;
    int fd_refs = 0;
    if (ino <= base.inode_count()) {
      entry_refs = base.inode(ino).nlink();
      fd_refs = base.inode(ino).open_refs();
    }
    for (; k < deltas.size() && deltas[k].ino == ino; ++k) {
      entry_refs += deltas[k].entries;
      fd_refs += deltas[k].fds;
    }
    audit_inode(ino, inode(ino), entry_refs, fd_refs, violations);
  }
  return violations;
}

}  // namespace tocttou::fs
