// Symlink-resolution edge cases: the kMaxSymlinkDepth limit, cycles,
// and walk_prefix's handling of broken or non-directory prefixes.
#include <gtest/gtest.h>

#include <string>

#include "../testing/programs.h"
#include "tocttou/fs/ops.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::fs {
namespace {

using sim::Action;
using sim::Kernel;
using tocttou::testing::ScriptProgram;

class SymlinkEdgeTest : public ::testing::Test {
 protected:
  SymlinkEdgeTest() : vfs_(SyscallCosts::xeon()) {
    vfs_.mkdir_p("/d", 0, 0, 0755);
    file_ = vfs_.create_file("/d/file", 0, 0, 0644, 64);
  }

  /// Creates /d/s1 -> /d/s2 -> ... -> /d/s<n> -> /d/file.
  void make_chain(int n) {
    for (int i = 1; i <= n; ++i) {
      const std::string target =
          i == n ? "/d/file" : "/d/s" + std::to_string(i + 1);
      vfs_.create_symlink("/d/s" + std::to_string(i), target, 0, 0);
    }
  }

  /// Runs one stat through the full op layer and returns its errno.
  Errno run_stat(const std::string& path) {
    trace::RoundTrace trace;
    sim::MachineSpec m;
    m.n_cpus = 1;
    m.noise = sim::NoiseModel::none();
    m.background.enabled = false;
    m.context_switch_cost = Duration::zero();
    m.wakeup_latency = Duration::zero();
    Kernel kernel(m, std::make_unique<sched::LinuxLikeScheduler>(), 1,
                  &trace);
    kernel.set_vfs(&vfs_);
    std::vector<Action> a;
    a.push_back(Action::service(stat_op(path)));
    sim::SpawnOptions opts;
    opts.name = "stat";
    const sim::Pid pid =
        kernel.spawn(std::make_unique<ScriptProgram>(std::move(a)), opts);
    EXPECT_TRUE(kernel.run_to_exit());
    return tocttou::testing::script_results(kernel, pid).at(0).err;
  }

  Vfs vfs_;
  Ino file_ = kNoIno;
};

TEST_F(SymlinkEdgeTest, ChainAtDepthLimitResolves) {
  make_chain(Vfs::kMaxSymlinkDepth);  // exactly 8 hops
  const auto r = vfs_.lookup("/d/s1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), file_);
  EXPECT_EQ(run_stat("/d/s1"), Errno::ok);
}

TEST_F(SymlinkEdgeTest, ChainBeyondDepthLimitIsEloop) {
  make_chain(Vfs::kMaxSymlinkDepth + 1);  // 9 hops: one too many
  EXPECT_EQ(vfs_.lookup("/d/s1").error(), Errno::eloop);
  EXPECT_EQ(run_stat("/d/s1"), Errno::eloop);
}

TEST_F(SymlinkEdgeTest, TwoLinkCycleIsEloop) {
  vfs_.create_symlink("/d/a", "/d/b", 0, 0);
  vfs_.create_symlink("/d/b", "/d/a", 0, 0);
  EXPECT_EQ(vfs_.lookup("/d/a").error(), Errno::eloop);
  EXPECT_EQ(run_stat("/d/a"), Errno::eloop);
  // lstat semantics: the link itself is still visible.
  EXPECT_TRUE(vfs_.lookup("/d/a", /*follow=*/false).ok());
}

TEST_F(SymlinkEdgeTest, SelfCycleIsEloop) {
  vfs_.create_symlink("/d/self", "/d/self", 0, 0);
  EXPECT_EQ(vfs_.lookup("/d/self").error(), Errno::eloop);
}

TEST_F(SymlinkEdgeTest, WalkPrefixThroughDanglingSymlinkIsEnoent) {
  // /dang -> /nowhere; resolving the PREFIX of /dang/x must fail with
  // ENOENT (the dangling target), not crash or invent a parent.
  vfs_.create_symlink("/dang", "/nowhere", 0, 0);
  const auto w = vfs_.walk_prefix("/dang/x");
  EXPECT_EQ(w.err, Errno::enoent);
  EXPECT_EQ(run_stat("/dang/x"), Errno::enoent);
}

TEST_F(SymlinkEdgeTest, WalkPrefixThroughCycleIsEloop) {
  vfs_.create_symlink("/d/a", "/d/b", 0, 0);
  vfs_.create_symlink("/d/b", "/d/a", 0, 0);
  EXPECT_EQ(vfs_.walk_prefix("/d/a/x").err, Errno::eloop);
}

TEST_F(SymlinkEdgeTest, WalkPrefixThroughFileIsEnotdir) {
  EXPECT_EQ(vfs_.walk_prefix("/d/file/x").err, Errno::enotdir);
  EXPECT_EQ(run_stat("/d/file/x"), Errno::enotdir);
}

TEST_F(SymlinkEdgeTest, PrefixSymlinkToFileIsEnotdir) {
  // /d/tofile -> /d/file; using it as a directory component fails.
  vfs_.create_symlink("/d/tofile", "/d/file", 0, 0);
  EXPECT_EQ(vfs_.walk_prefix("/d/tofile/x").err, Errno::enotdir);
  EXPECT_EQ(vfs_.lookup("/d/tofile/x").error(), Errno::enotdir);
}

}  // namespace
}  // namespace tocttou::fs
