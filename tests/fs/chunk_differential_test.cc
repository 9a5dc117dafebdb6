// Differential test of copy-on-write inode chunks against a deep
// reference.
//
// A template tree is built by seeded create_in and link_entry calls to
// span at least three chunks, the last one partly filled. Two copies
// are taken, the second a copy of the first, and a seeded mix of
// create_in, link_entry, unlink_entry, inode_mut writes and alloc_inode
// appends runs on them, each call mirrored into a per-Vfs reference
// that holds its own inodes by value. After every call:
//   - every inode of each Vfs reads as its reference says;
//   - the template's digest and its (clean) audit have not moved;
//   - audit_since(template) returns audit()'s lines, also while a
//     planted nlink violation sits in a chunk the plant copied and in a
//     chunk copied before;
//   - an inode of a chunk the copy never wrote is the template's own
//     object, and one of a chunk it wrote is not. The first append of
//     each copy lands in the template's partly filled, still shared last
//     chunk.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tocttou/common/rng.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/fs/vfs.h"

namespace tocttou::fs {
namespace {

constexpr std::size_t kTemplateInodes =
    3 * kChunkInodes + kChunkInodes / 2 + 1;

std::size_t chunk_of(Ino ino) { return (ino - 1) / kChunkInodes; }

StateHasher::Digest digest_of(const Vfs& vfs) {
  StateHasher h;
  vfs.hash_state(h);
  return h.digest();
}

/// What one inode must read as, held by value.
struct RefInode {
  FileType type = FileType::regular;
  sim::Uid uid = 0;
  sim::Gid gid = 0;
  Mode mode = 0;
  std::uint64_t size_bytes = 0;
  int nlink = 0;
  std::string symlink_target;
  bool rename_in_progress = false;
  std::map<std::string, Ino> entries;
};

/// A Vfs, the reference its calls are mirrored into, and the chunks it
/// has written since it was copied from the template.
struct Tracked {
  const char* label;
  Vfs vfs;
  std::vector<RefInode> ref;  // index ino - 1
  std::set<std::size_t> written;

  RefInode& at(Ino ino) { return ref[ino - 1]; }

  Ino create(Ino dir, const std::string& name, FileType type, Mode mode) {
    Inode& n = vfs.create_in(dir, name, type, 7, 8, mode);
    if (type == FileType::symlink) n.set_symlink_target("/" + name);
    RefInode r;
    r.type = type;
    r.uid = 7;
    r.gid = 8;
    r.mode = mode;
    r.nlink = 1;
    if (type == FileType::symlink) r.symlink_target = "/" + name;
    ref.push_back(std::move(r));
    at(dir).entries.emplace(name, n.ino());
    written.insert(chunk_of(dir));
    written.insert(chunk_of(n.ino()));
    return n.ino();
  }

  void link(Ino dir, const std::string& name, Ino target) {
    vfs.link_entry(dir, name, target);
    at(dir).entries.emplace(name, target);
    ++at(target).nlink;
    written.insert(chunk_of(dir));
    written.insert(chunk_of(target));
  }

  void unlink(Ino dir, const std::string& name) {
    const Ino target = at(dir).entries.at(name);
    vfs.unlink_entry(dir, name);
    at(dir).entries.erase(name);
    --at(target).nlink;
    written.insert(chunk_of(dir));
    written.insert(chunk_of(target));
  }

  void append() {
    const Ino ino = vfs.alloc_inode(FileType::regular, 9, 9, 0600).ino();
    ASSERT_EQ(ino, ref.size() + 1);
    RefInode r;
    r.uid = 9;
    r.gid = 9;
    r.mode = 0600;
    ref.push_back(std::move(r));
    written.insert(chunk_of(ino));
  }

  /// One field of `ino` through inode_mut, picked by `what`.
  void write(Ino ino, int what, std::uint64_t value) {
    RefInode& r = at(ino);
    Inode& n = vfs.inode_mut(ino);
    switch (what) {
      case 0:
        n.set_mode(static_cast<Mode>(value & 0777));
        r.mode = static_cast<Mode>(value & 0777);
        break;
      case 1:
        n.set_owner(static_cast<sim::Uid>(value % 5),
                    static_cast<sim::Gid>(value % 3));
        r.uid = static_cast<sim::Uid>(value % 5);
        r.gid = static_cast<sim::Gid>(value % 3);
        break;
      case 2:
        n.add_size_bytes(value % 4096);
        r.size_bytes += value % 4096;
        break;
      case 3:
        n.set_rename_in_progress(!r.rename_in_progress);
        r.rename_in_progress = !r.rename_in_progress;
        break;
      default:
        if (r.type == FileType::symlink) {
          const std::string t = "/t" + std::to_string(value % 97);
          n.set_symlink_target(t);
          r.symlink_target = t;
        } else {
          n.set_size_bytes(value % 8192);
          r.size_bytes = value % 8192;
        }
        break;
    }
    written.insert(chunk_of(ino));
  }

  std::vector<Ino> dirs() const {
    std::vector<Ino> out;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      if (ref[i].type == FileType::directory) out.push_back(i + 1);
    }
    return out;
  }
};

/// Every inode of `t.vfs` against `t.ref`; an empty string when equal.
std::string first_difference(const Tracked& t) {
  if (t.vfs.inode_count() != t.ref.size()) return "inode count";
  for (Ino ino = 1; ino <= t.ref.size(); ++ino) {
    const Inode& n = t.vfs.inode(ino);
    const RefInode& r = t.ref[ino - 1];
    std::vector<std::pair<std::string, Ino>> listed;
    if (n.is_dir()) {
      listed.assign(n.entries().begin(), n.entries().end());
    }
    const std::vector<std::pair<std::string, Ino>> want(r.entries.begin(),
                                                        r.entries.end());
    if (n.ino() != ino || n.type() != r.type || n.uid() != r.uid ||
        n.gid() != r.gid || n.mode() != r.mode ||
        n.size_bytes() != r.size_bytes || n.nlink() != r.nlink ||
        n.open_refs() != 0 || n.symlink_target() != r.symlink_target ||
        n.rename_in_progress() != r.rename_in_progress ||
        n.sem().held() || listed != want) {
      return "inode " + std::to_string(ino);
    }
  }
  return {};
}

/// Inodes of chunks `t` never wrote are the template's objects; inodes
/// of chunks it wrote are its own.
std::string first_sharing_error(const Tracked& t, const Vfs& tpl) {
  for (Ino ino = 1; ino <= tpl.inode_count(); ++ino) {
    const bool shared = &t.vfs.inode(ino) == &tpl.inode(ino);
    if (shared == t.written.contains(chunk_of(ino))) {
      return "inode " + std::to_string(ino) +
             (shared ? " still shared" : " copied unwritten");
    }
  }
  return {};
}

std::string pick(Rng& rng, const std::vector<std::string>& pool) {
  return pool[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

Ino pick(Rng& rng, const std::vector<Ino>& inos) {
  return inos[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(inos.size()) - 1))];
}

/// Seeded template: directories, files and symlinks made by create_in,
/// plus hard links, until it holds kTemplateInodes inodes.
Tracked build_template(Rng& rng, const std::vector<std::string>& names) {
  Tracked t{"template", Vfs(SyscallCosts::xeon()), {}, {}};
  t.ref.resize(1);
  t.ref[0].type = FileType::directory;
  t.ref[0].mode = kModeDefaultDir;
  t.ref[0].nlink = 1;
  while (t.ref.size() < kTemplateInodes) {
    const Ino dir = pick(rng, t.dirs());
    const std::string name = pick(rng, names);
    if (t.at(dir).entries.contains(name)) continue;
    const auto kind = rng.uniform_int(0, 9);
    if (kind == 0 && t.ref.size() > 2) {
      const Ino target =
          static_cast<Ino>(rng.uniform_int(2, static_cast<std::int64_t>(
                                                  t.ref.size())));
      if (t.at(target).type != FileType::directory) t.link(dir, name, target);
      continue;
    }
    const FileType type = kind <= 3   ? FileType::directory
                          : kind == 4 ? FileType::symlink
                                      : FileType::regular;
    t.create(dir, name, type, type == FileType::directory ? 0755 : 0644);
  }
  t.written.clear();
  return t;
}

void run_seed(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  std::vector<std::string> names;
  for (int k = 0; k < 24; ++k) names.push_back("e" + std::to_string(k));

  const Tracked tpl = build_template(rng, names);
  ASSERT_EQ(tpl.vfs.inode_count(), kTemplateInodes);
  ASSERT_EQ(first_difference(tpl), "");
  ASSERT_TRUE(tpl.vfs.audit().empty());
  const StateHasher::Digest tpl_digest = digest_of(tpl.vfs);

  Tracked copy{"copy", tpl.vfs, tpl.ref, {}};
  Tracked copy2{"copy of the copy", copy.vfs, copy.ref, {}};
  const Tracked* const all[] = {&tpl, &copy, &copy2};
  const auto check = [&] {
    for (const Tracked* v : all) {
      ASSERT_EQ(first_difference(*v), "") << v->label;
    }
    ASSERT_EQ(digest_of(tpl.vfs), tpl_digest);
    ASSERT_TRUE(tpl.vfs.audit().empty());
    for (const Tracked* c : {all[1], all[2]}) {
      const auto full = c->vfs.audit();
      ASSERT_TRUE(full.empty()) << c->label << ": " << full.front();
      ASSERT_EQ(c->vfs.audit_since(tpl.vfs), full) << c->label;
      ASSERT_EQ(first_sharing_error(*c, tpl.vfs), "") << c->label;
    }
  };
  ASSERT_NO_FATAL_FAILURE(check());

  // Each copy appends first, into the template's partly filled last
  // chunk while it is still shared.
  for (Tracked* t : {&copy, &copy2}) {
    ASSERT_TRUE(t->written.empty());
    ASSERT_NO_FATAL_FAILURE(t->append());
    ASSERT_EQ(chunk_of(t->vfs.inode_count()),
              kChunkInodes > 1 ? chunk_of(kTemplateInodes)
                               : chunk_of(kTemplateInodes) + 1);
    ASSERT_NO_FATAL_FAILURE(check());
  }

  constexpr int kSteps = 600;
  constexpr int kPlantEvery = 7;
  int plants_in_shared = 0;
  int plants_in_copied = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    Tracked& t = rng.bernoulli(0.5) ? copy : copy2;
    SCOPED_TRACE(t.label);
    const Ino dir = pick(rng, t.dirs());
    const std::string name = pick(rng, names);
    const bool named = t.at(dir).entries.contains(name);
    const Ino any = static_cast<Ino>(
        rng.uniform_int(1, static_cast<std::int64_t>(t.ref.size())));
    switch (rng.uniform_int(0, 5)) {
      case 0:
        if (!named) {
          const FileType type = rng.bernoulli(0.2) ? FileType::directory
                                                   : FileType::regular;
          t.create(dir, name, type, 0640);
        }
        break;
      case 1:
        if (!named && t.at(any).type != FileType::directory) {
          t.link(dir, name, any);
        }
        break;
      case 2:
        if (named && t.at(t.at(dir).entries.at(name)).type !=
                         FileType::directory) {
          t.unlink(dir, name);
        }
        break;
      case 3:
        ASSERT_NO_FATAL_FAILURE(t.append());
        break;
      default:
        t.write(any, static_cast<int>(rng.uniform_int(0, 4)),
                rng.next_u64());
        break;
    }
    ASSERT_NO_FATAL_FAILURE(check());

    if (step % kPlantEvery != 0) continue;
    // Plant an nlink violation, alternately in a template inode whose
    // chunk `t` still shares and in one whose chunk it has copied; the
    // delta audit must see what the full audit sees. Then undo it.
    std::vector<Ino> candidates;
    const bool in_shared = (step / kPlantEvery) % 2 == 0;
    for (Ino ino = 1; ino <= kTemplateInodes; ++ino) {
      if (t.written.contains(chunk_of(ino)) != in_shared) {
        candidates.push_back(ino);
      }
    }
    if (candidates.empty()) continue;
    const Ino victim = pick(rng, candidates);
    const int nlink = t.at(victim).nlink;
    t.vfs.inode_mut(victim).set_nlink(nlink + 2);
    t.written.insert(chunk_of(victim));
    const auto full = t.vfs.audit();
    ASSERT_FALSE(full.empty());
    ASSERT_EQ(t.vfs.audit_since(tpl.vfs), full);
    ASSERT_EQ(first_sharing_error(t, tpl.vfs), "");
    ASSERT_EQ(digest_of(tpl.vfs), tpl_digest);
    t.vfs.inode_mut(victim).set_nlink(nlink);
    (in_shared ? plants_in_shared : plants_in_copied) += 1;
  }
  EXPECT_GT(plants_in_shared, 0);
  EXPECT_GT(plants_in_copied, 0);
}

TEST(ChunkDifferentialTest, CopiesMatchADeepReferenceAndShareWhatTheyNeverWrote) {
  for (std::uint64_t seed : {1u, 7u, 0x5eedu, 0xc0ffeeu}) {
    ASSERT_NO_FATAL_FAILURE(run_seed(seed));
  }
}

}  // namespace
}  // namespace tocttou::fs
