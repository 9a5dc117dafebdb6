// Syscall op semantics, driven through the simulated kernel.
#include <gtest/gtest.h>

#include "../testing/programs.h"
#include "tocttou/fs/ops.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/faults.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::fs {
namespace {

using namespace tocttou::literals;
using sim::Action;
using sim::Kernel;
using sim::Pid;
using sim::SyscallResult;
using tocttou::testing::ScriptProgram;

class OpsTest : public ::testing::Test {
 protected:
  OpsTest() : vfs_(SyscallCosts::xeon()) {
    vfs_.mkdir_p("/etc", 0, 0, 0755);
    vfs_.mkdir_p("/home/alice", 500, 500, 0755);
    passwd_ = vfs_.create_file("/etc/passwd", 0, 0, 0644, 1536);
    file_ = vfs_.create_file("/home/alice/f.txt", 500, 500, 0644, 4096);
    reset_kernel();
  }

  void reset_kernel(trace::RoundTrace* tr = nullptr) {
    sim::MachineSpec m;
    m.n_cpus = 2;
    m.context_switch_cost = Duration::zero();
    m.wakeup_latency = Duration::zero();
    m.noise = sim::NoiseModel::none();
    m.background.enabled = false;
    kernel_ = std::make_unique<Kernel>(
        m, std::make_unique<sched::LinuxLikeScheduler>(), 1, tr);
    kernel_->set_vfs(&vfs_);
  }

  Pid spawn(std::vector<Action> actions, sim::Uid uid = 500,
            sim::Gid gid = 500, std::string name = "p") {
    sim::SpawnOptions opts;
    opts.name = std::move(name);
    opts.uid = uid;
    opts.gid = gid;
    return kernel_->spawn(
        std::make_unique<ScriptProgram>(std::move(actions)), opts);
  }

  void run() { ASSERT_TRUE(kernel_->run_to_exit()); }

  /// What process `pid`'s calls returned, in order.
  const std::vector<SyscallResult>& results(Pid pid) const {
    return tocttou::testing::script_results(*kernel_, pid);
  }

  Vfs vfs_;
  Ino passwd_ = kNoIno;
  Ino file_ = kNoIno;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(OpsTest, StatReturnsSnapshot) {
  std::vector<Action> a;
  a.push_back(Action::service(stat_op("/home/alice/f.txt")));
  const Pid p = spawn(std::move(a));
  run();
  const SyscallResult& r = results(p).at(0);
  EXPECT_EQ(r.err, Errno::ok);
  EXPECT_EQ(r.stat.uid, 500u);
  EXPECT_EQ(r.stat.gid, 500u);
  EXPECT_EQ(r.stat.size_bytes, 4096u);
  EXPECT_EQ(r.stat.ino, file_);
  EXPECT_FALSE(r.stat.owned_by_root());
}

TEST_F(OpsTest, StatEnoent) {
  std::vector<Action> a;
  a.push_back(Action::service(stat_op("/home/alice/nope")));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::enoent);
}

TEST_F(OpsTest, StatFollowsSymlinkLstatDoesNot) {
  vfs_.create_symlink("/home/alice/link", "/etc/passwd", 500, 500);
  std::vector<Action> a;
  a.push_back(Action::service(stat_op("/home/alice/link")));
  a.push_back(Action::service(lstat_op("/home/alice/link")));
  const Pid p = spawn(std::move(a));
  run();
  const SyscallResult& st = results(p).at(0);
  const SyscallResult& lst = results(p).at(1);
  EXPECT_EQ(st.err, Errno::ok);
  EXPECT_EQ(st.stat.ino, passwd_);
  EXPECT_TRUE(st.stat.owned_by_root());
  EXPECT_EQ(lst.err, Errno::ok);
  EXPECT_TRUE(lst.stat.is_symlink());
  EXPECT_NE(lst.stat.ino, passwd_);
}

TEST_F(OpsTest, OpenCreatesFileOwnedByCaller) {
  std::vector<Action> a;
  a.push_back(Action::service(open_op(
      "/home/alice/new.txt", OpenFlags::write_create_trunc(), 0644)));
  const Pid p = spawn(std::move(a), /*uid=*/0, /*gid=*/0);  // root, like vi
  run();
  EXPECT_GE(results(p).at(0).fd, 3);
  const auto ino = vfs_.lookup("/home/alice/new.txt");
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(vfs_.inode(ino.value()).uid(), 0u);  // root-owned: the window!
  EXPECT_EQ(vfs_.inode(ino.value()).open_refs(), 1);
}

TEST_F(OpsTest, OpenTruncResetsSize) {
  std::vector<Action> a;
  a.push_back(Action::service(open_op(
      "/home/alice/f.txt", OpenFlags::write_create_trunc(), 0644)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(vfs_.inode(file_).size_bytes(), 0u);
}

TEST_F(OpsTest, OpenExclRejectsExisting) {
  OpenFlags flags = OpenFlags::write_create_trunc();
  flags.excl = true;
  std::vector<Action> a;
  a.push_back(Action::service(open_op("/home/alice/f.txt", flags, 0644)));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).fd, -1);
  EXPECT_EQ(results(p).at(0).err, Errno::eexist);
}

TEST_F(OpsTest, OpenPermissionDenied) {
  OpenFlags flags;
  flags.write = true;
  std::vector<Action> a;
  a.push_back(Action::service(open_op("/etc/passwd", flags, 0)));
  const Pid p = spawn(std::move(a), 500, 500);  // non-root writing passwd
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::eacces);
}

TEST_F(OpsTest, OpenNoCreateEnoent) {
  std::vector<Action> a;
  a.push_back(Action::service(
      open_op("/home/alice/missing", OpenFlags::read_only(), 0)));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::enoent);
}

TEST_F(OpsTest, OpenFollowsSymlink) {
  vfs_.create_symlink("/home/alice/link", "/home/alice/f.txt", 500, 500);
  OpenFlags flags;
  flags.write = true;
  std::vector<Action> a;
  a.push_back(Action::service(open_op("/home/alice/link", flags, 0)));
  const Pid p = spawn(std::move(a));
  run();
  ASSERT_GE(results(p).at(0).fd, 3);
  EXPECT_EQ(vfs_.inode(file_).open_refs(), 1);
}

TEST_F(OpsTest, WriteGrowsFileAndCloseReleases) {
  // Stage an fd for pid 1 (the first process this kernel spawns).
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::write_create_trunc());
  std::vector<Action> a;
  a.push_back(Action::service(write_op(fd, 8192)));
  a.push_back(Action::service(close_op(fd)));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(results(p).at(1).err, Errno::ok);
  EXPECT_EQ(vfs_.inode(file_).size_bytes(), 4096u + 8192u);
  EXPECT_EQ(vfs_.inode(file_).open_refs(), 0);
}

TEST_F(OpsTest, WriteBadFd) {
  std::vector<Action> a;
  a.push_back(Action::service(write_op(77, 100)));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ebadf);
}

TEST_F(OpsTest, WriteOnReadOnlyFdRejected) {
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::read_only());
  std::vector<Action> a;
  a.push_back(Action::service(write_op(fd, 100)));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ebadf);
}

TEST_F(OpsTest, EntryFaultWritesTheCallsOwnSlots) {
  // Every call under /home/alice fails at entry with EIO, before it
  // touches the tree: its result reads as a failed call's, the errno
  // set, no StatBuf and open's fd -1. A write carries no path, so the
  // path filter skips it.
  sim::FaultPlan plan;
  std::string perr;
  ASSERT_TRUE(
      sim::FaultPlan::parse("error:1:errno=eio:path=/home/alice", &plan, &perr))
      << perr;
  sim::FaultInjector faults(plan, 1);
  kernel_->set_fault_injector(&faults);
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::write_create_trunc());
  std::vector<Action> a;
  a.push_back(Action::service(stat_op("/home/alice/f.txt")));
  a.push_back(Action::service(open_op(
      "/home/alice/new.txt", OpenFlags::write_create_trunc(), 0644)));
  a.push_back(Action::service(unlink_op("/home/alice/f.txt")));
  a.push_back(Action::service(write_op(fd, 100)));
  const Pid p = spawn(std::move(a));
  run();
  const std::vector<SyscallResult>& r = results(p);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0].err, Errno::eio);
  EXPECT_EQ(r[0].stat.ino, kNoIno);  // no snapshot was taken
  EXPECT_EQ(r[1].fd, -1);
  EXPECT_EQ(r[1].err, Errno::eio);
  EXPECT_FALSE(vfs_.exists("/home/alice/new.txt"));
  EXPECT_EQ(r[2].err, Errno::eio);
  EXPECT_TRUE(vfs_.exists("/home/alice/f.txt"));
  EXPECT_EQ(r[3].err, Errno::ok);
  EXPECT_EQ(vfs_.inode(file_).size_bytes(), 4096u + 100u);
  EXPECT_EQ(faults.stats().errors_injected, 3u);
}

TEST_F(OpsTest, RenameMovesAndReplaces) {
  vfs_.create_file("/home/alice/old", 500, 500, 0644, 10);
  std::vector<Action> a;
  a.push_back(
      Action::service(rename_op("/home/alice/old", "/home/alice/f.txt")));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_FALSE(vfs_.exists("/home/alice/old"));
  const auto now_at = vfs_.lookup("/home/alice/f.txt");
  ASSERT_TRUE(now_at.ok());
  EXPECT_NE(now_at.value(), file_);             // replaced by 'old'
  EXPECT_EQ(vfs_.inode(file_).nlink(), 0);      // old target dropped
}

TEST_F(OpsTest, RenameCrossDirectoryRejected) {
  std::vector<Action> a;
  a.push_back(Action::service(rename_op("/home/alice/f.txt", "/etc/f.txt")));
  const Pid p = spawn(std::move(a), 0, 0);
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::exdev);
  EXPECT_TRUE(vfs_.exists("/home/alice/f.txt"));
}

TEST_F(OpsTest, RenameEnoent) {
  std::vector<Action> a;
  a.push_back(
      Action::service(rename_op("/home/alice/missing", "/home/alice/x")));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::enoent);
}

TEST_F(OpsTest, UnlinkRemovesNameButOrphanSurvivesOpenFd) {
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::write_create_trunc());
  std::vector<Action> a;
  a.push_back(Action::service(unlink_op("/home/alice/f.txt")));
  a.push_back(Action::service(write_op(fd, 1000)));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(results(p).at(1).err, Errno::ok);  // writes through the fd
                                               // still work (vi!)
  EXPECT_FALSE(vfs_.exists("/home/alice/f.txt"));
  EXPECT_EQ(vfs_.inode(file_).nlink(), 0);
  EXPECT_EQ(vfs_.inode(file_).size_bytes(), 4096u + 1000u);
}

TEST_F(OpsTest, UnlinkDirectoryRejected) {
  std::vector<Action> a;
  a.push_back(Action::service(unlink_op("/home/alice")));
  const Pid p = spawn(std::move(a), 0, 0);
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::eisdir);
}

TEST_F(OpsTest, UnlinkRemovesSymlinkNotTarget) {
  vfs_.create_symlink("/home/alice/link", "/etc/passwd", 500, 500);
  std::vector<Action> a;
  a.push_back(Action::service(unlink_op("/home/alice/link")));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_FALSE(vfs_.exists("/home/alice/link"));
  EXPECT_TRUE(vfs_.exists("/etc/passwd"));
}

TEST_F(OpsTest, UnlinkPermissionDeniedInForeignDir) {
  std::vector<Action> a;
  a.push_back(Action::service(unlink_op("/etc/passwd")));
  const Pid p = spawn(std::move(a), 500, 500);
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::eacces);
  EXPECT_TRUE(vfs_.exists("/etc/passwd"));
}

TEST_F(OpsTest, SymlinkCreatesAndEexists) {
  std::vector<Action> a;
  a.push_back(Action::service(symlink_op("/etc/passwd", "/home/alice/evil")));
  a.push_back(Action::service(symlink_op("/etc/passwd", "/home/alice/evil")));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(results(p).at(1).err, Errno::eexist);
  const auto l = vfs_.lookup("/home/alice/evil", false);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(vfs_.inode(l.value()).is_symlink());
  EXPECT_EQ(vfs_.inode(l.value()).uid(), 500u);
}

TEST_F(OpsTest, ChownFollowsSymlinkOntoPasswd) {
  // THE attack semantic: root chowns the watched name, which the
  // attacker has replaced with a symlink to /etc/passwd.
  vfs_.unlink_entry(vfs_.lookup("/home/alice").value(), "f.txt");
  vfs_.create_symlink("/home/alice/f.txt", "/etc/passwd", 500, 500);
  trace::RoundTrace tr;
  reset_kernel(&tr);
  std::vector<Action> a;
  a.push_back(Action::service(chown_op("/home/alice/f.txt", 500, 500)));
  sim::SpawnOptions opts;
  opts.name = "vi";
  opts.uid = 0;
  const Pid p =
      kernel_->spawn(std::make_unique<ScriptProgram>(std::move(a)), opts);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(vfs_.inode(passwd_).uid(), 500u);  // passwd handed over!
  const auto recs = tr.journal.for_pid(1, "chown");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0]->applied_ino, passwd_);
}

TEST_F(OpsTest, ChownRequiresRoot) {
  std::vector<Action> a;
  a.push_back(Action::service(chown_op("/home/alice/f.txt", 501, 501)));
  const Pid p = spawn(std::move(a), 500, 500);
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::eperm);
  EXPECT_EQ(vfs_.inode(file_).uid(), 500u);
}

TEST_F(OpsTest, ChmodByOwnerAndByRoot) {
  std::vector<Action> a;
  a.push_back(Action::service(chmod_op("/home/alice/f.txt", 0600)));
  const Pid p = spawn(std::move(a), 500, 500);
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(vfs_.inode(file_).mode(), 0600);

  reset_kernel();
  std::vector<Action> b;
  b.push_back(Action::service(chmod_op("/home/alice/f.txt", 0777)));
  sim::SpawnOptions opts;
  opts.name = "other";
  opts.uid = 42;
  opts.gid = 42;
  const Pid q =
      kernel_->spawn(std::make_unique<ScriptProgram>(std::move(b)), opts);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(results(q).at(0).err, Errno::eperm);  // not the owner, not root
}

TEST_F(OpsTest, MkdirCreatesAndRejectsDup) {
  std::vector<Action> a;
  a.push_back(Action::service(mkdir_op("/home/alice/dir", 0755)));
  a.push_back(Action::service(mkdir_op("/home/alice/dir", 0755)));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(results(p).at(1).err, Errno::eexist);
  EXPECT_TRUE(vfs_.inode(vfs_.lookup("/home/alice/dir").value()).is_dir());
}

TEST_F(OpsTest, ReadlinkReturnsTarget) {
  vfs_.create_symlink("/home/alice/link", "/etc/passwd", 500, 500);
  std::vector<Action> a;
  a.push_back(Action::service(readlink_op("/home/alice/link")));
  a.push_back(Action::service(readlink_op("/home/alice/f.txt")));
  const Pid p = spawn(std::move(a));
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);
  EXPECT_EQ(results(p).at(0).link, "/etc/passwd");
  EXPECT_EQ(results(p).at(1).err, Errno::einval);  // not a symlink
  EXPECT_TRUE(results(p).at(1).link.empty());
}

TEST_F(OpsTest, AccessChecksPermissions) {
  std::vector<Action> a;
  a.push_back(Action::service(access_op("/etc/passwd")));
  a.push_back(Action::service(access_op("/etc/missing")));
  const Pid p = spawn(std::move(a), 500, 500);
  run();
  EXPECT_EQ(results(p).at(0).err, Errno::ok);  // 0644: world-readable
  EXPECT_EQ(results(p).at(1).err, Errno::enoent);
}

TEST_F(OpsTest, JournalRecordsStatObservations) {
  trace::RoundTrace tr;
  reset_kernel(&tr);
  std::vector<Action> a;
  a.push_back(Action::service(stat_op("/etc/passwd")));
  sim::SpawnOptions opts;
  opts.name = "attacker";
  opts.uid = 500;
  kernel_->spawn(std::make_unique<ScriptProgram>(std::move(a)), opts);
  ASSERT_TRUE(kernel_->run_to_exit());
  const auto recs = tr.journal.for_pid(1, "stat");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(tr.journal.path(*recs[0]), "/etc/passwd");
  ASSERT_TRUE(recs[0]->st_uid.has_value());
  EXPECT_EQ(*recs[0]->st_uid, 0u);
  EXPECT_EQ(*recs[0]->st_ino, passwd_);
  EXPECT_EQ(recs[0]->result, Errno::ok);
}

}  // namespace
}  // namespace tocttou::fs
