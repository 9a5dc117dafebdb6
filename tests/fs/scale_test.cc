// Machine-scale VFS regression tests (DESIGN.md §11).
//
// The multi-tenant scale model stages O(10^4)-O(10^5) inode trees,
// which is exactly where an accidental O(n log n) in the audit or a
// broken hashed-directory index would hide. These tests pin the
// auditor's verdicts on a 10^4-inode tree and check that reset()
// returns a staged tree to a fresh one.
#include <gtest/gtest.h>

#include <string>
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

StateHasher::Digest digest_of(const Vfs& vfs) {
  StateHasher h;
  vfs.hash_state(h);
  return h.digest();
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
