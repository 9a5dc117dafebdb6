// fd-based operations (fstat/fchmod/fchown) and link(): semantics and
// their TOCTTOU immunity.
#include <gtest/gtest.h>

#include "../testing/programs.h"
#include "tocttou/fs/ops.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::fs {
namespace {

using namespace tocttou::literals;
using sim::Action;
using sim::Kernel;
using sim::SyscallResult;
using tocttou::testing::ScriptProgram;

class FdOpsTest : public ::testing::Test {
 protected:
  FdOpsTest() : vfs_(SyscallCosts::xeon()) {
    vfs_.mkdir_p("/etc", 0, 0, 0755);
    passwd_ = vfs_.create_file("/etc/passwd", 0, 0, 0644, 1536);
    vfs_.mkdir_p("/d", 500, 500, 0777);
    file_ = vfs_.create_file("/d/f", 0, 0, 0600, 4096);
    sim::MachineSpec m;
    m.n_cpus = 2;
    m.noise = sim::NoiseModel::none();
    m.background.enabled = false;
    m.context_switch_cost = Duration::zero();
    m.wakeup_latency = Duration::zero();
    kernel_ = std::make_unique<Kernel>(
        m, std::make_unique<sched::LinuxLikeScheduler>(), 1, &trace_);
    kernel_->set_vfs(&vfs_);
  }

  sim::Pid spawn(std::vector<Action> actions, sim::Uid uid,
                 std::string name = "p") {
    sim::SpawnOptions opts;
    opts.name = std::move(name);
    opts.uid = uid;
    opts.gid = uid;
    return kernel_->spawn(
        std::make_unique<ScriptProgram>(std::move(actions)), opts);
  }

  /// What process `pid`'s calls returned, in order.
  const std::vector<SyscallResult>& results(sim::Pid pid) const {
    return tocttou::testing::script_results(*kernel_, pid);
  }

  Vfs vfs_;
  Ino passwd_ = kNoIno;
  Ino file_ = kNoIno;
  trace::RoundTrace trace_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(FdOpsTest, FstatReadsTheOpenInode) {
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::read_only());
  std::vector<Action> a;
  a.push_back(Action::service(fstat_op(fd)));
  const sim::Pid p = spawn(std::move(a), 0);
  ASSERT_TRUE(kernel_->run_to_exit());
  const SyscallResult& r = results(p).at(0);
  EXPECT_EQ(r.err, Errno::ok);
  EXPECT_EQ(r.stat.ino, file_);
  EXPECT_EQ(r.stat.size_bytes, 4096u);
}

TEST_F(FdOpsTest, FstatBadFd) {
  std::vector<Action> a;
  a.push_back(Action::service(fstat_op(99)));
  const sim::Pid p = spawn(std::move(a), 0);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(p).at(0).err, Errno::ebadf);
}

TEST_F(FdOpsTest, FchownImmuneToNameRedirection) {
  // The core defense property: the victim holds an fd; the attacker
  // swaps the NAME for a symlink to /etc/passwd; fchown still applies to
  // the original inode and the passwd file is untouched.
  const int fd = vfs_.fd_alloc(2, file_, OpenFlags::write_create_trunc());
  std::vector<Action> attacker, victim;
  attacker.push_back(Action::service(unlink_op("/d/f")));
  attacker.push_back(Action::service(symlink_op("/etc/passwd", "/d/f")));
  victim.push_back(Action::compute(200_us));  // attack completes first
  victim.push_back(Action::service(fchown_op(fd, 500, 500)));
  const sim::Pid a = spawn(std::move(attacker), 500, "attacker");
  const sim::Pid v = spawn(std::move(victim), 0, "victim");
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(a).at(0).err, Errno::ok);
  EXPECT_EQ(results(a).at(1).err, Errno::ok);
  EXPECT_EQ(results(v).at(0).err, Errno::ok);
  EXPECT_EQ(vfs_.inode(file_).uid(), 500u);    // orphan got chowned
  EXPECT_EQ(vfs_.inode(passwd_).uid(), 0u);    // passwd untouched!
}

TEST_F(FdOpsTest, FchmodByOwnerAndPermissions) {
  const Ino mine = vfs_.create_file("/d/mine", 500, 500, 0600, 1);
  const int fd = vfs_.fd_alloc(1, mine, OpenFlags::read_only());
  std::vector<Action> a;
  a.push_back(Action::service(fchmod_op(fd, 0640)));
  const sim::Pid p = spawn(std::move(a), 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(vfs_.inode(mine).mode(), 0640);

  // A third user may not fchmod someone else's file.
  const int fd2 = vfs_.fd_alloc(2, mine, OpenFlags::read_only());
  std::vector<Action> b;
  b.push_back(Action::service(fchmod_op(fd2, 0777)));
  const sim::Pid q = spawn(std::move(b), 42, "other");
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(q).at(0).err, Errno::eperm);
}

TEST_F(FdOpsTest, FchownRequiresRoot) {
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::read_only());
  std::vector<Action> a;
  a.push_back(Action::service(fchown_op(fd, 500, 500)));
  const sim::Pid p = spawn(std::move(a), 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(p).at(0).err, Errno::eperm);
}

TEST_F(FdOpsTest, FdAllocReturnsLowestFreeDescriptor) {
  // POSIX requires open() to return the lowest-numbered free descriptor.
  // A regression here is observable: programs that close and reopen
  // expect the same fd back.
  const int fd3 = vfs_.fd_alloc(1, file_, OpenFlags::read_only());
  const int fd4 = vfs_.fd_alloc(1, file_, OpenFlags::read_only());
  const int fd5 = vfs_.fd_alloc(1, file_, OpenFlags::read_only());
  EXPECT_EQ(fd3, 3);  // 0-2 are reserved for stdio
  EXPECT_EQ(fd4, 4);
  EXPECT_EQ(fd5, 5);

  // Close a descriptor in the middle: the hole is refilled first.
  EXPECT_EQ(vfs_.fd_close(1, fd4), Errno::ok);
  EXPECT_EQ(vfs_.fd_alloc(1, file_, OpenFlags::read_only()), 4);
  // No holes left: allocation resumes past the top.
  EXPECT_EQ(vfs_.fd_alloc(1, file_, OpenFlags::read_only()), 6);

  // Tables are per process: another pid starts from 3 regardless.
  EXPECT_EQ(vfs_.fd_alloc(2, file_, OpenFlags::read_only()), 3);
}

TEST_F(FdOpsTest, OpenCloseOpenReusesTheFd) {
  // End-to-end through the open/close ops rather than fd_alloc directly.
  // The process has no other descriptors, so the first open must return
  // fd 3 — which lets the script close it by number.
  std::vector<Action> a;
  a.push_back(Action::service(open_op("/d/f", OpenFlags::read_only(), 0)));
  a.push_back(Action::service(close_op(3)));
  a.push_back(Action::service(open_op("/d/f", OpenFlags::read_only(), 0)));
  const sim::Pid p = spawn(std::move(a), 0);
  ASSERT_TRUE(kernel_->run_to_exit());
  const std::vector<SyscallResult>& r = results(p);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].err, Errno::ok);
  EXPECT_EQ(r[0].fd, 3);
  EXPECT_EQ(r[1].err, Errno::ok);
  EXPECT_EQ(r[2].err, Errno::ok);
  EXPECT_EQ(r[2].fd, 3);
}

TEST_F(FdOpsTest, LinkCreatesSecondName) {
  std::vector<Action> a;
  a.push_back(Action::service(link_op("/d/f", "/d/g")));
  const sim::Pid p = spawn(std::move(a), 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(vfs_.lookup("/d/g").value(), file_);
  EXPECT_EQ(vfs_.inode(file_).nlink(), 2);
}

TEST_F(FdOpsTest, LinkErrors) {
  vfs_.create_file("/d/exists", 500, 500);
  std::vector<Action> a;
  a.push_back(Action::service(link_op("/d/missing", "/d/x")));
  a.push_back(Action::service(link_op("/d/f", "/d/exists")));
  a.push_back(Action::service(link_op("/d", "/d/y")));
  const sim::Pid p = spawn(std::move(a), 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  const std::vector<SyscallResult>& r = results(p);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].err, Errno::enoent);
  EXPECT_EQ(r[1].err, Errno::eexist);
  EXPECT_EQ(r[2].err, Errno::eisdir);
}

TEST_F(FdOpsTest, LinkDoesNotFollowSymlinkFinal) {
  vfs_.create_symlink("/d/sl", "/etc/passwd", 500, 500);
  std::vector<Action> a;
  a.push_back(Action::service(link_op("/d/sl", "/d/sl2")));
  const sim::Pid p = spawn(std::move(a), 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  const auto l = vfs_.lookup("/d/sl2", false);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(vfs_.inode(l.value()).is_symlink());  // linked the link
}

}  // namespace
}  // namespace tocttou::fs
