// Syscall op semantics, driven through the simulated kernel.
#include <gtest/gtest.h>

#include "../testing/programs.h"
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

  Vfs vfs_;
  Ino passwd_ = kNoIno;
  Ino file_ = kNoIno;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(OpsTest, StatReturnsSnapshot) {
  StatBuf out;
  Errno err = Errno::einval;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.stat_op("/home/alice/f.txt", &out, &err)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(err, Errno::ok);
  EXPECT_EQ(out.uid, 500u);
  EXPECT_EQ(out.gid, 500u);
  EXPECT_EQ(out.size_bytes, 4096u);
  EXPECT_EQ(out.ino, file_);
  EXPECT_FALSE(out.owned_by_root());
}

TEST_F(OpsTest, StatEnoent) {
  StatBuf out;
  Errno err = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.stat_op("/home/alice/nope", &out, &err)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(err, Errno::enoent);
}

TEST_F(OpsTest, StatFollowsSymlinkLstatDoesNot) {
  vfs_.create_symlink("/home/alice/link", "/etc/passwd", 500, 500);
  StatBuf st, lst;
  Errno e1 = Errno::einval, e2 = Errno::einval;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.stat_op("/home/alice/link", &st, &e1)));
  a.push_back(Action::service(vfs_.lstat_op("/home/alice/link", &lst, &e2)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(e1, Errno::ok);
  EXPECT_EQ(st.ino, passwd_);
  EXPECT_TRUE(st.owned_by_root());
  EXPECT_EQ(e2, Errno::ok);
  EXPECT_TRUE(lst.is_symlink());
  EXPECT_NE(lst.ino, passwd_);
}

TEST_F(OpsTest, OpenCreatesFileOwnedByCaller) {
  OpenResult out;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.open_op(
      "/home/alice/new.txt", OpenFlags::write_create_trunc(), 0644, &out)));
  spawn(std::move(a), /*uid=*/0, /*gid=*/0);  // root creates, like vi
  run();
  EXPECT_GE(out.fd, 3);
  const auto ino = vfs_.lookup("/home/alice/new.txt");
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(vfs_.inode(ino.value()).uid(), 0u);  // root-owned: the window!
  EXPECT_EQ(vfs_.inode(ino.value()).open_refs(), 1);
}

TEST_F(OpsTest, OpenTruncResetsSize) {
  OpenResult out;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.open_op(
      "/home/alice/f.txt", OpenFlags::write_create_trunc(), 0644, &out)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(vfs_.inode(file_).size_bytes(), 0u);
}

TEST_F(OpsTest, OpenExclRejectsExisting) {
  OpenResult out;
  OpenFlags flags = OpenFlags::write_create_trunc();
  flags.excl = true;
  std::vector<Action> a;
  a.push_back(
      Action::service(vfs_.open_op("/home/alice/f.txt", flags, 0644, &out)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(out.fd, -1);
  EXPECT_EQ(out.err, Errno::eexist);
}

TEST_F(OpsTest, OpenPermissionDenied) {
  OpenResult out;
  OpenFlags flags;
  flags.write = true;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.open_op("/etc/passwd", flags, 0, &out)));
  spawn(std::move(a), 500, 500);  // non-root writing /etc/passwd
  run();
  EXPECT_EQ(out.err, Errno::eacces);
}

TEST_F(OpsTest, OpenNoCreateEnoent) {
  OpenResult out;
  std::vector<Action> a;
  a.push_back(Action::service(
      vfs_.open_op("/home/alice/missing", OpenFlags::read_only(), 0, &out)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(out.err, Errno::enoent);
}

TEST_F(OpsTest, OpenFollowsSymlink) {
  vfs_.create_symlink("/home/alice/link", "/home/alice/f.txt", 500, 500);
  OpenResult out;
  OpenFlags flags;
  flags.write = true;
  std::vector<Action> a;
  a.push_back(
      Action::service(vfs_.open_op("/home/alice/link", flags, 0, &out)));
  spawn(std::move(a));
  run();
  ASSERT_GE(out.fd, 3);
  EXPECT_EQ(vfs_.inode(file_).open_refs(), 1);
}

TEST_F(OpsTest, WriteGrowsFileAndCloseReleases) {
  // Stage an fd for pid 1 (the first process this kernel spawns).
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::write_create_trunc());
  Errno werr = Errno::einval, cerr = Errno::einval;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.write_op(fd, 8192, &werr)));
  a.push_back(Action::service(vfs_.close_op(fd, &cerr)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(werr, Errno::ok);
  EXPECT_EQ(cerr, Errno::ok);
  EXPECT_EQ(vfs_.inode(file_).size_bytes(), 4096u + 8192u);
  EXPECT_EQ(vfs_.inode(file_).open_refs(), 0);
}

TEST_F(OpsTest, WriteBadFd) {
  Errno err = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.write_op(77, 100, &err)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(err, Errno::ebadf);
}

TEST_F(OpsTest, WriteOnReadOnlyFdRejected) {
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::read_only());
  Errno err = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.write_op(fd, 100, &err)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(err, Errno::ebadf);
}

TEST_F(OpsTest, EntryFaultWritesTheCallsOwnSlots) {
  // Every call under /home/alice fails at entry with EIO, before it
  // touches the tree: the errno slot, or open's fd/err pair, reads as a
  // failed call. A write carries no path, so the path filter skips it.
  sim::FaultPlan plan;
  std::string perr;
  ASSERT_TRUE(
      sim::FaultPlan::parse("error:1:errno=eio:path=/home/alice", &plan, &perr))
      << perr;
  sim::FaultInjector faults(plan, 1);
  kernel_->set_fault_injector(&faults);
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::write_create_trunc());
  StatBuf st;
  st.uid = 77;
  Errno stat_err = Errno::ok, unlink_err = Errno::ok;
  Errno write_err = Errno::einval;
  OpenResult opened;
  opened.fd = 9;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.stat_op("/home/alice/f.txt", &st,
                                           &stat_err)));
  a.push_back(Action::service(vfs_.open_op("/home/alice/new.txt",
                                           OpenFlags::write_create_trunc(),
                                           0644, &opened)));
  a.push_back(Action::service(vfs_.unlink_op("/home/alice/f.txt",
                                             &unlink_err)));
  a.push_back(Action::service(vfs_.write_op(fd, 100, &write_err)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(stat_err, Errno::eio);
  EXPECT_EQ(st.uid, 77u);  // no snapshot was taken
  EXPECT_EQ(opened.fd, -1);
  EXPECT_EQ(opened.err, Errno::eio);
  EXPECT_FALSE(vfs_.exists("/home/alice/new.txt"));
  EXPECT_EQ(unlink_err, Errno::eio);
  EXPECT_TRUE(vfs_.exists("/home/alice/f.txt"));
  EXPECT_EQ(write_err, Errno::ok);
  EXPECT_EQ(vfs_.inode(file_).size_bytes(), 4096u + 100u);
  EXPECT_EQ(faults.stats().errors_injected, 3u);
}

TEST_F(OpsTest, RenameMovesAndReplaces) {
  vfs_.create_file("/home/alice/old", 500, 500, 0644, 10);
  Errno err = Errno::einval;
  std::vector<Action> a;
  a.push_back(Action::service(
      vfs_.rename_op("/home/alice/old", "/home/alice/f.txt", &err)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(err, Errno::ok);
  EXPECT_FALSE(vfs_.exists("/home/alice/old"));
  const auto now_at = vfs_.lookup("/home/alice/f.txt");
  ASSERT_TRUE(now_at.ok());
  EXPECT_NE(now_at.value(), file_);             // replaced by 'old'
  EXPECT_EQ(vfs_.inode(file_).nlink(), 0);      // old target dropped
}

TEST_F(OpsTest, RenameCrossDirectoryRejected) {
  Errno err = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(
      vfs_.rename_op("/home/alice/f.txt", "/etc/f.txt", &err)));
  spawn(std::move(a), 0, 0);
  run();
  EXPECT_EQ(err, Errno::exdev);
  EXPECT_TRUE(vfs_.exists("/home/alice/f.txt"));
}

TEST_F(OpsTest, RenameEnoent) {
  Errno err = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(
      vfs_.rename_op("/home/alice/missing", "/home/alice/x", &err)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(err, Errno::enoent);
}

TEST_F(OpsTest, UnlinkRemovesNameButOrphanSurvivesOpenFd) {
  const int fd = vfs_.fd_alloc(1, file_, OpenFlags::write_create_trunc());
  Errno uerr = Errno::einval, werr = Errno::einval;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.unlink_op("/home/alice/f.txt", &uerr)));
  a.push_back(Action::service(vfs_.write_op(fd, 1000, &werr)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(uerr, Errno::ok);
  EXPECT_EQ(werr, Errno::ok);  // writes through the fd still work (vi!)
  EXPECT_FALSE(vfs_.exists("/home/alice/f.txt"));
  EXPECT_EQ(vfs_.inode(file_).nlink(), 0);
  EXPECT_EQ(vfs_.inode(file_).size_bytes(), 4096u + 1000u);
}

TEST_F(OpsTest, UnlinkDirectoryRejected) {
  Errno err = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.unlink_op("/home/alice", &err)));
  spawn(std::move(a), 0, 0);
  run();
  EXPECT_EQ(err, Errno::eisdir);
}

TEST_F(OpsTest, UnlinkRemovesSymlinkNotTarget) {
  vfs_.create_symlink("/home/alice/link", "/etc/passwd", 500, 500);
  Errno err = Errno::einval;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.unlink_op("/home/alice/link", &err)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(err, Errno::ok);
  EXPECT_FALSE(vfs_.exists("/home/alice/link"));
  EXPECT_TRUE(vfs_.exists("/etc/passwd"));
}

TEST_F(OpsTest, UnlinkPermissionDeniedInForeignDir) {
  Errno err = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.unlink_op("/etc/passwd", &err)));
  spawn(std::move(a), 500, 500);
  run();
  EXPECT_EQ(err, Errno::eacces);
  EXPECT_TRUE(vfs_.exists("/etc/passwd"));
}

TEST_F(OpsTest, SymlinkCreatesAndEexists) {
  Errno e1 = Errno::einval, e2 = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(
      vfs_.symlink_op("/etc/passwd", "/home/alice/evil", &e1)));
  a.push_back(Action::service(
      vfs_.symlink_op("/etc/passwd", "/home/alice/evil", &e2)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(e1, Errno::ok);
  EXPECT_EQ(e2, Errno::eexist);
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
  Errno err = Errno::einval;
  std::vector<Action> a;
  a.push_back(
      Action::service(vfs_.chown_op("/home/alice/f.txt", 500, 500, &err)));
  sim::SpawnOptions opts;
  opts.name = "vi";
  opts.uid = 0;
  kernel_->spawn(std::make_unique<ScriptProgram>(std::move(a)), opts);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(err, Errno::ok);
  EXPECT_EQ(vfs_.inode(passwd_).uid(), 500u);  // passwd handed over!
  const auto recs = tr.journal.for_pid(1, "chown");
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0]->applied_ino, passwd_);
}

TEST_F(OpsTest, ChownRequiresRoot) {
  Errno err = Errno::ok;
  std::vector<Action> a;
  a.push_back(
      Action::service(vfs_.chown_op("/home/alice/f.txt", 501, 501, &err)));
  spawn(std::move(a), 500, 500);
  run();
  EXPECT_EQ(err, Errno::eperm);
  EXPECT_EQ(vfs_.inode(file_).uid(), 500u);
}

TEST_F(OpsTest, ChmodByOwnerAndByRoot) {
  Errno e1 = Errno::einval;
  std::vector<Action> a;
  a.push_back(
      Action::service(vfs_.chmod_op("/home/alice/f.txt", 0600, &e1)));
  spawn(std::move(a), 500, 500);
  run();
  EXPECT_EQ(e1, Errno::ok);
  EXPECT_EQ(vfs_.inode(file_).mode(), 0600);

  reset_kernel();
  Errno e2 = Errno::ok;
  std::vector<Action> b;
  b.push_back(
      Action::service(vfs_.chmod_op("/home/alice/f.txt", 0777, &e2)));
  sim::SpawnOptions opts;
  opts.name = "other";
  opts.uid = 42;
  opts.gid = 42;
  kernel_->spawn(std::make_unique<ScriptProgram>(std::move(b)), opts);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(e2, Errno::eperm);  // not the owner, not root
}

TEST_F(OpsTest, MkdirCreatesAndRejectsDup) {
  Errno e1 = Errno::einval, e2 = Errno::ok;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.mkdir_op("/home/alice/dir", 0755, &e1)));
  a.push_back(Action::service(vfs_.mkdir_op("/home/alice/dir", 0755, &e2)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(e1, Errno::ok);
  EXPECT_EQ(e2, Errno::eexist);
  EXPECT_TRUE(vfs_.inode(vfs_.lookup("/home/alice/dir").value()).is_dir());
}

TEST_F(OpsTest, ReadlinkReturnsTarget) {
  vfs_.create_symlink("/home/alice/link", "/etc/passwd", 500, 500);
  std::string target;
  Errno e1 = Errno::einval, e2 = Errno::ok;
  std::vector<Action> a;
  a.push_back(
      Action::service(vfs_.readlink_op("/home/alice/link", &target, &e1)));
  std::string t2;
  a.push_back(
      Action::service(vfs_.readlink_op("/home/alice/f.txt", &t2, &e2)));
  spawn(std::move(a));
  run();
  EXPECT_EQ(e1, Errno::ok);
  EXPECT_EQ(target, "/etc/passwd");
  EXPECT_EQ(e2, Errno::einval);  // not a symlink
}

TEST_F(OpsTest, AccessChecksPermissions) {
  Errno e1 = Errno::einval, e2 = Errno::einval;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.access_op("/etc/passwd", &e1)));
  a.push_back(Action::service(vfs_.access_op("/etc/missing", &e2)));
  spawn(std::move(a), 500, 500);
  run();
  EXPECT_EQ(e1, Errno::ok);  // 0644: world-readable
  EXPECT_EQ(e2, Errno::enoent);
}

TEST_F(OpsTest, JournalRecordsStatObservations) {
  trace::RoundTrace tr;
  reset_kernel(&tr);
  StatBuf out;
  std::vector<Action> a;
  a.push_back(Action::service(vfs_.stat_op("/etc/passwd", &out, nullptr)));
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
