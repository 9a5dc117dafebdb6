// Copy-on-write inode sharing between Vfs copies: a copy shares every
// inode with its source until it writes one, a write never reaches the
// source, and read-only syscalls leave the inodes they read shared.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "../testing/programs.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::fs {
namespace {

using sim::Action;
using tocttou::testing::ScriptProgram;

StateHasher::Digest digest_of(const Vfs& vfs) {
  StateHasher h;
  vfs.hash_state(h);
  return h.digest();
}

std::unique_ptr<sim::Kernel> quiet_kernel() {
  sim::MachineSpec m;
  m.n_cpus = 2;
  m.context_switch_cost = Duration::zero();
  m.wakeup_latency = Duration::zero();
  m.noise = sim::NoiseModel::none();
  m.background.enabled = false;
  return std::make_unique<sim::Kernel>(
      m, std::make_unique<sched::LinuxLikeScheduler>(), 1, nullptr);
}

sim::Pid spawn(sim::Kernel& k, std::vector<Action> actions) {
  sim::SpawnOptions opts;
  opts.name = "p";
  opts.uid = 500;
  opts.gid = 500;
  return k.spawn(std::make_unique<ScriptProgram>(std::move(actions)), opts);
}

class CopyOnWriteTest : public ::testing::Test {
 protected:
  CopyOnWriteTest() : src_(SyscallCosts::xeon()) {
    src_.mkdir_p("/etc", 0, 0, 0755);
    src_.create_file("/etc/passwd", 0, 0, 0644, 1536);
    dir_ = src_.mkdir_p("/home/alice", 500, 500, 0755);
    file_ = src_.create_file("/home/alice/f.txt", 500, 500, 0644, 4096);
    src_digest_ = digest_of(src_);
  }

  /// The source must read exactly as staged: same digest, clean audit.
  void expect_source_untouched() {
    EXPECT_EQ(digest_of(src_), src_digest_);
    EXPECT_TRUE(src_.audit().empty());
  }

  Vfs src_;
  Ino dir_ = kNoIno;
  Ino file_ = kNoIno;
  StateHasher::Digest src_digest_;
};

TEST_F(CopyOnWriteTest, ACopySharesEveryInodeUntilItWrites) {
  const Vfs copy(src_);
  EXPECT_EQ(digest_of(copy), src_digest_);
  for (Ino ino = 1; ino <= src_.inode_count(); ++ino) {
    EXPECT_EQ(&copy.inode(ino), &src_.inode(ino)) << "ino " << ino;
  }
}

TEST_F(CopyOnWriteTest, EveryMutatorWritesOnlyTheCopy) {
  const std::vector<std::pair<const char*, std::function<void(Vfs&)>>>
      mutators = {
          {"mode", [&](Vfs& v) { v.inode_mut(file_).set_mode(0600); }},
          {"owner", [&](Vfs& v) { v.inode_mut(file_).set_owner(0, 0); }},
          {"size", [&](Vfs& v) { v.inode_mut(file_).set_size_bytes(1); }},
          {"link_entry", [&](Vfs& v) { v.link_entry(dir_, "hard", file_); }},
          {"unlink_entry", [&](Vfs& v) { v.unlink_entry(dir_, "f.txt"); }},
          {"rename_in_progress",
           [&](Vfs& v) { v.inode_mut(dir_).set_rename_in_progress(true); }},
          {"fd_alloc",
           [&](Vfs& v) { v.fd_alloc(3, file_, OpenFlags::read_only()); }},
      };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    Vfs copy(src_);
    mutate(copy);
    EXPECT_NE(digest_of(copy), src_digest_);
    expect_source_untouched();
  }
}

TEST_F(CopyOnWriteTest, ASemaphoreAcquiredThroughAnOpIsTheCopysOwn) {
  // Step a chmod on the copy until it holds the file's i_sem: the copy's
  // semaphore has an owner, the source's none.
  Vfs copy(src_);
  auto kernel = quiet_kernel();
  std::vector<Action> a;
  a.push_back(Action::service(copy.chmod_op("/home/alice/f.txt", 0600)));
  const sim::Pid pid = spawn(*kernel, std::move(a));
  while (!copy.inode(file_).sem().held()) ASSERT_TRUE(kernel->step());
  EXPECT_EQ(copy.inode(file_).sem().owner(), pid);
  EXPECT_NE(&copy.inode(file_), &src_.inode(file_));
  EXPECT_NE(digest_of(copy), src_digest_);
  EXPECT_FALSE(src_.inode(file_).sem().held());
  expect_source_untouched();
  ASSERT_TRUE(kernel->run_to_exit());
  EXPECT_EQ(copy.inode(file_).mode(), 0600);
  expect_source_untouched();
}

TEST_F(CopyOnWriteTest, ReadOnlySyscallsLeaveTheDirectoryShared) {
  Vfs copy(src_);
  auto kernel = quiet_kernel();
  StatBuf st;
  StatBuf lst;
  Errno stat_err = Errno::einval;
  Errno lstat_err = Errno::einval;
  Errno access_err = Errno::einval;
  std::vector<Action> a;
  a.push_back(
      Action::service(copy.stat_op("/home/alice/f.txt", &st, &stat_err)));
  a.push_back(
      Action::service(copy.lstat_op("/home/alice/f.txt", &lst, &lstat_err)));
  a.push_back(
      Action::service(copy.access_op("/home/alice/f.txt", &access_err)));
  spawn(*kernel, std::move(a));
  ASSERT_TRUE(kernel->run_to_exit());
  EXPECT_EQ(stat_err, Errno::ok);
  EXPECT_EQ(lstat_err, Errno::ok);
  EXPECT_EQ(access_err, Errno::ok);
  EXPECT_EQ(st.ino, file_);
  // The walks read the directory and the file without copying either.
  EXPECT_EQ(&copy.inode(dir_), &src_.inode(dir_));
  EXPECT_EQ(&copy.inode(file_), &src_.inode(file_));

  // open(O_CREAT) takes the directory's i_sem and links an entry: the
  // copy gets a private directory; the source keeps the old one.
  OpenResult created;
  std::vector<Action> b;
  b.push_back(Action::service(copy.open_op("/home/alice/new",
                                           OpenFlags::write_create_trunc(),
                                           kModeDefaultFile, &created)));
  spawn(*kernel, std::move(b));
  ASSERT_TRUE(kernel->run_to_exit());
  EXPECT_EQ(created.err, Errno::ok);
  EXPECT_NE(&copy.inode(dir_), &src_.inode(dir_));
  EXPECT_NE(copy.lookup_in(dir_, "new"), kNoIno);
  EXPECT_EQ(src_.lookup_in(dir_, "new"), kNoIno);
  expect_source_untouched();
}

TEST(CopyOnWriteHolderTest, TheLastHolderOfAnInodeWritesItInPlace) {
  // Once the source is gone the copy is every inode's only holder, so a
  // write needs no copy.
  auto src = std::make_unique<Vfs>(SyscallCosts::xeon());
  const Ino f = src->create_file("/f", 0, 0);
  Vfs copy(*src);
  const Inode* shared = &copy.inode(f);
  src.reset();
  copy.inode_mut(f).set_mode(0600);
  EXPECT_EQ(&copy.inode(f), shared);
}

}  // namespace
}  // namespace tocttou::fs
