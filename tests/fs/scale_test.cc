// Machine-scale VFS regression tests (DESIGN.md §11).
//
// The multi-tenant scale model stages O(10^4)-O(10^5) inode trees,
// which is exactly where an accidental O(n log n) in the audit or a
// broken directory lookup would hide. These tests pin the auditor's
// verdicts on a 10^4-inode tree, pin the digest of each staged tree and
// check that reset() returns a staged tree to a fresh one. The delta
// audit (audit_since) must report exactly the full audit's lines on a
// damaged copy of it.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tocttou/common/strings.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/programs/background.h"

namespace tocttou::fs {
namespace {

constexpr std::uint64_t kTreeInodes = 10000;

programs::BackgroundSpec scale_spec() {
  programs::BackgroundSpec spec;
  std::string err;
  EXPECT_TRUE(programs::BackgroundSpec::parse(
      strfmt("procs=32,inodes=%llu",
             static_cast<unsigned long long>(kTreeInodes)),
      &spec, &err))
      << err;
  return spec;
}

bool any_line_contains(const std::vector<std::string>& lines,
                       const std::string& needle) {
  for (const auto& l : lines) {
    if (l.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(VfsScaleTest, AuditIsSilentOnHealthy10kInodeTree) {
  Vfs vfs(SyscallCosts::xeon());
  programs::stage_background_tree(vfs, scale_spec());
  ASSERT_GE(vfs.inode_count(), kTreeInodes);
  EXPECT_TRUE(vfs.audit().empty());
}

TEST(VfsScaleTest, AuditFlagsPlantedCorruptionIn10kInodeTree) {
  Vfs vfs(SyscallCosts::xeon());
  programs::stage_background_tree(vfs, scale_spec());
  // Corrupt one needle deep inside the haystack: a prestaged file's
  // link count. The auditor must find exactly that one violation.
  const auto victim = vfs.lookup("/srv/data/t0/s0/u0/v0/f0");
  ASSERT_TRUE(victim.ok());
  vfs.inode_mut(victim.value()).set_nlink(7);
  const auto v = vfs.audit();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(any_line_contains(v, "nlink mismatch")) << v.front();
}

TEST(VfsScaleTest, AuditSinceFlagsPlantedCorruptionInACopyOf10kInodeTree) {
  // The twin of the test above, on a copy of the staged tree: the delta
  // audit against the clean original must find the same one needle.
  Vfs base(SyscallCosts::xeon());
  programs::stage_background_tree(base, scale_spec());
  ASSERT_TRUE(base.audit().empty());
  Vfs copy = base;
  const auto victim = copy.lookup("/srv/data/t0/s0/u0/v0/f0");
  ASSERT_TRUE(victim.ok());
  copy.inode_mut(victim.value()).set_nlink(7);
  const auto v = copy.audit_since(base);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(any_line_contains(v, "nlink mismatch")) << v.front();
}

TEST(VfsScaleTest, AuditSinceMatchesAuditOnEachPlantedFault) {
  // Each fault is planted in a copy of the clean staged tree, in a leaf
  // directory of its own; audit_since(base) must return audit()'s lines
  // exactly, one fault at a time and all seven in one copy. The base
  // holds an open fd, so both trees' fd tables count.
  Vfs base(SyscallCosts::xeon());
  programs::stage_background_tree(base, scale_spec());
  base.fd_alloc(7, base.lookup("/srv/data/t0/s0/u0/v1/f0").value(),
                OpenFlags::read_only());
  ASSERT_TRUE(base.audit().empty());
  const auto dir = [&base](int k) {
    return base.lookup(strfmt("/srv/data/t0/s0/u0/v%d", k)).value();
  };
  const auto file = [&base](int k) {
    return base.lookup(strfmt("/srv/data/t0/s0/u0/v%d/f0", k)).value();
  };
  const Ino spare_dir = base.lookup("/srv/data/t0/s0/u1/v0").value();
  const std::vector<std::pair<const char*, std::function<void(Vfs&)>>>
      faults = {
          {"nlink change on a shared inode",
           [&](Vfs& v) { v.inode_mut(file(0)).set_nlink(3); }},
          {"fd whose open ref was dropped",
           [&](Vfs& v) {
             v.fd_alloc(7, file(1), OpenFlags::read_only());
             v.release_ref(file(1));
           }},
          {"empty symlink target",
           [&](Vfs& v) {
             const Ino link = v.create_symlink("/srv/data/t0/s0/u0/v2/ln",
                                               "/srv/data", 0, 0);
             v.inode_mut(link).set_symlink_target("");
           }},
          {"entry unlinked with a stale nlink",
           [&](Vfs& v) {
             v.unlink_entry(dir(3), "f0");
             v.inode_mut(file(3)).set_nlink(1);
           }},
          {"extra hard link",
           [&](Vfs& v) {
             v.link_entry(spare_dir, "hard", file(4));
             v.inode_mut(file(4)).set_nlink(1);
           }},
          {"negative nlink",
           [&](Vfs& v) { v.inode_mut(file(5)).set_nlink(-1); }},
          {"fresh inode",
           [&](Vfs& v) {
             v.alloc_inode(FileType::regular, 0, 0, 0644).set_nlink(2);
           }},
      };
  Vfs all = base;
  for (const auto& [name, plant] : faults) {
    SCOPED_TRACE(name);
    Vfs copy = base;
    plant(copy);
    plant(all);
    const auto full = copy.audit();
    EXPECT_FALSE(full.empty());
    EXPECT_EQ(copy.audit_since(base), full);
  }
  const auto full = all.audit();
  EXPECT_GE(full.size(), faults.size());
  EXPECT_EQ(all.audit_since(base), full);
}

StateHasher::Digest digest_of(const Vfs& vfs) {
  StateHasher h;
  vfs.hash_state(h);
  return h.digest();
}

TEST(VfsScaleTest, StagedTreesKeepTheirInodeCountAndDigest) {
  // What staging builds, pinned: each tree's inode count and digest,
  // which covers the allocation order, every inode's fields and each
  // directory's entries in name order. How directories store entries
  // and how staging links files may change; these trees may not.
  struct Pin {
    const char* spec;
    std::size_t inodes;
    std::uint64_t hi;
    std::uint64_t lo;
  };
  const Pin pins[] = {
      {"procs=32,inodes=10000", 10409, 0x2b357c95202e6449ull,
       0x45db0517d39e80f2ull},
      {"procs=256,inodes=25600", 26621, 0xf00c73c88cb7ed38ull,
       0xcc16e51280fb19c5ull},
      {"web=2,cron=1,build=1,log=3,docroot=5", 17, 0xf332652643275b54ull,
       0x8b83930c54e559a5ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.spec);
    programs::BackgroundSpec spec;
    std::string err;
    ASSERT_TRUE(programs::BackgroundSpec::parse(pin.spec, &spec, &err))
        << err;
    Vfs vfs(SyscallCosts::xeon());
    programs::stage_background_tree(vfs, spec);
    EXPECT_EQ(vfs.inode_count(), pin.inodes);
    const StateHasher::Digest d = digest_of(vfs);
    EXPECT_EQ(d.hi, pin.hi);
    EXPECT_EQ(d.lo, pin.lo);
    EXPECT_TRUE(vfs.audit().empty());
  }
}

TEST(VfsScaleTest, ResetTreeHashesLikeAFreshOne) {
  // A staged machine-scale tree with open fds, reset, is an empty tree:
  // no inode, fd table or counter of the old tree reaches the digest.
  Vfs vfs(SyscallCosts::xeon());
  programs::stage_background_tree(vfs, scale_spec());
  const auto f = vfs.lookup("/srv/data/t0/s0/u0/v0/f0");
  ASSERT_TRUE(f.ok());
  vfs.fd_alloc(3, f.value(), OpenFlags::read_only());
  vfs.reset(SyscallCosts::pentium_d());
  const Vfs fresh(SyscallCosts::pentium_d());
  EXPECT_EQ(digest_of(vfs), digest_of(fresh));
  EXPECT_EQ(vfs.inode_count(), fresh.inode_count());
  EXPECT_EQ(vfs.open_fd_count(3), 0u);
  EXPECT_TRUE(vfs.costs() == fresh.costs());
  EXPECT_TRUE(vfs.audit().empty());
}

}  // namespace
}  // namespace tocttou::fs
