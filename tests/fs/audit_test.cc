// The post-round VFS invariant auditor: silent on healthy trees, loud on
// planted corruption. The harness runs it after every round; these tests
// prove it can actually detect the classes of damage it claims to.
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

bool any_line_contains(const std::vector<std::string>& lines,
                       const std::string& needle) {
  for (const auto& l : lines) {
    if (l.find(needle) != std::string::npos) return true;
  }
  return false;
}

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : vfs_(SyscallCosts::xeon()) {
    vfs_.mkdir_p("/d", 0, 0, 0755);
    file_ = vfs_.create_file("/d/f", 0, 0, 0644, 128);
  }

  Vfs vfs_;
  Ino file_ = kNoIno;
};

TEST_F(AuditTest, FreshTreeIsClean) {
  EXPECT_TRUE(vfs_.audit().empty());
}

TEST_F(AuditTest, CleanAfterRealWorkload) {
  // Drive a little life through the op layer — open/write/close, a
  // rename, an unlink orphaning an open file — then audit. All of that
  // is legal; the auditor must stay silent.
  trace::RoundTrace trace;
  sim::MachineSpec m;
  m.n_cpus = 2;
  m.noise = sim::NoiseModel::none();
  m.background.enabled = false;
  m.context_switch_cost = Duration::zero();
  m.wakeup_latency = Duration::zero();
  Kernel kernel(m, std::make_unique<sched::LinuxLikeScheduler>(), 1, &trace);
  kernel.set_vfs(&vfs_);
  std::vector<Action> a;
  a.push_back(Action::service(
      open_op("/d/f", OpenFlags::write_create_trunc(), 0644)));
  a.push_back(Action::service(write_op(3, 64)));
  a.push_back(Action::service(rename_op("/d/f", "/d/g")));
  // Unlink while fd 3 is still open: a live orphan — legal state.
  a.push_back(Action::service(unlink_op("/d/g")));
  sim::SpawnOptions opts;
  opts.name = "worker";
  const sim::Pid pid =
      kernel.spawn(std::make_unique<ScriptProgram>(std::move(a)), opts);
  ASSERT_TRUE(kernel.run_to_exit());
  const auto& results = tocttou::testing::script_results(kernel, pid);
  ASSERT_EQ(results.size(), 4u);
  for (const sim::SyscallResult& r : results) ASSERT_EQ(r.err, Errno::ok);
  const auto v = vfs_.audit();
  EXPECT_TRUE(v.empty()) << v.front();
}

TEST_F(AuditTest, DetectsPlantedNlinkCorruption) {
  vfs_.inode_mut(file_).set_nlink(7);
  const auto v = vfs_.audit();
  ASSERT_FALSE(v.empty());
  EXPECT_TRUE(any_line_contains(v, "nlink mismatch")) << v.front();
  // Repair and re-audit: clean again (the auditor is read-only).
  vfs_.inode_mut(file_).set_nlink(1);
  EXPECT_TRUE(vfs_.audit().empty());
}

TEST_F(AuditTest, DetectsFdTableRefcountMismatch) {
  // An fd-table entry exists but the inode's open_refs was (illegally)
  // dropped — exactly the damage a buggy close path would leave behind.
  vfs_.fd_alloc(1, file_, OpenFlags::read_only());
  vfs_.release_ref(file_);
  const auto v = vfs_.audit();
  ASSERT_FALSE(v.empty());
  EXPECT_TRUE(any_line_contains(v, "open_refs mismatch")) << v.front();
}

TEST_F(AuditTest, DetectsEmptySymlinkTarget) {
  const Ino sl = vfs_.create_symlink("/d/sl", "/d/f", 0, 0);
  vfs_.inode_mut(sl).set_symlink_target("");
  EXPECT_TRUE(any_line_contains(vfs_.audit(), "empty target"));
}

}  // namespace
}  // namespace tocttou::fs
