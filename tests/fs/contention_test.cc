// Semaphore contention semantics: the effects Sections 6 and 7 of the
// paper hinge on — the unlink-vs-chmod cascade, the blocked stat, and
// unlink's two-phase structure that enables the pipelined attack.
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

class ContentionTest : public ::testing::Test {
 protected:
  ContentionTest() : vfs_(make_costs()) {
    vfs_.mkdir_p("/d", 500, 500, 0777);
    vfs_.mkdir_p("/etc", 0, 0, 0755);
    vfs_.create_file("/etc/passwd", 0, 0, 0644, 1536);
    file_ = vfs_.create_file("/d/f", 0, 0, 0644, 64 * 1024);
    sim::MachineSpec m;
    m.n_cpus = 2;
    m.context_switch_cost = Duration::zero();
    m.wakeup_latency = Duration::zero();
    m.noise = sim::NoiseModel::none();
    m.background.enabled = false;
    kernel_ = std::make_unique<Kernel>(
        m, std::make_unique<sched::LinuxLikeScheduler>(), 1, &trace_);
    kernel_->set_vfs(&vfs_);
  }

  static SyscallCosts make_costs() {
    SyscallCosts c = SyscallCosts::xeon();
    c.unlink_detach = 50_us;  // widen the windows so overlap is certain
    c.rename_work = 50_us;
    c.truncate_per_kb = 10_us;  // 64KB file -> 640us truncate
    return c;
  }

  sim::Pid spawn(std::vector<Action> actions, std::string name,
                 sim::Uid uid) {
    sim::SpawnOptions opts;
    opts.name = std::move(name);
    opts.uid = uid;
    opts.gid = uid;
    return kernel_->spawn(
        std::make_unique<ScriptProgram>(std::move(actions)), opts);
  }

  /// The errno of process `pid`'s k-th call.
  Errno err(sim::Pid pid, std::size_t k) const {
    return tocttou::testing::script_results(*kernel_, pid).at(k).err;
  }

  Vfs vfs_;
  Ino file_ = kNoIno;
  trace::RoundTrace trace_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(ContentionTest, ChmodBlocksBehindUnlinkCascade) {
  // The winning half of the paper's cascade: the attacker's unlink takes
  // the file's inode semaphore first; root's chmod (issued 10us later)
  // resolves the name — still present until the detach commits — and
  // then stalls on that semaphore through the detach AND the physical
  // truncate (64KB x 10us/KB here), finally applying to the orphan.
  std::vector<Action> att, vic;
  att.push_back(Action::service(unlink_op("/d/f")));
  vic.push_back(Action::compute(10_us));
  vic.push_back(Action::service(chmod_op("/d/f", 0222)));
  const auto a = spawn(std::move(att), "attacker", 500);
  const auto v = spawn(std::move(vic), "root", 0);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(err(a, 0), Errno::ok);
  EXPECT_EQ(err(v, 0), Errno::ok);  // applied -- to the orphaned inode
  EXPECT_FALSE(vfs_.exists("/d/f"));
  EXPECT_EQ(vfs_.inode(file_).mode(), 0222);
  EXPECT_EQ(vfs_.inode(file_).nlink(), 0);

  // The chmod visibly waited on the inode semaphore, well past the
  // truncate (~640us).
  const auto chmods = trace_.journal.for_pid(v, "chmod");
  const auto unlinks = trace_.journal.for_pid(a, "unlink");
  ASSERT_EQ(chmods.size(), 1u);
  ASSERT_EQ(unlinks.size(), 1u);
  EXPECT_GT(chmods[0]->length(), 500_us);
  EXPECT_GT(chmods[0]->exit, unlinks[0]->exit);
  bool waited = false;
  for (const auto& ev : trace_.log.events()) {
    if (ev.pid == v && ev.category == trace::Category::sem_wait) {
      waited = true;
    }
  }
  EXPECT_TRUE(waited);
}

TEST_F(ContentionTest, UnlinkBlocksBehindChmodCascade) {
  // The losing half: chmod wins the inode semaphore, so the attacker's
  // unlink stalls. The chown then resolves the still-present name and
  // queues on the inode semaphore BEHIND the unlink (FIFO), eventually
  // applying to the orphan — but never to /etc/passwd: attack failed.
  std::vector<Action> att, vic;
  att.push_back(Action::compute(2_us));
  att.push_back(Action::service(unlink_op("/d/f")));
  vic.push_back(Action::service(chmod_op("/d/f", 0600)));
  vic.push_back(Action::service(chown_op("/d/f", 500, 500)));
  const auto a = spawn(std::move(att), "attacker", 500);
  const auto v = spawn(std::move(vic), "root", 0);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(err(v, 0), Errno::ok);
  EXPECT_EQ(err(a, 0), Errno::ok);  // unlink eventually proceeds
  EXPECT_EQ(err(v, 1), Errno::ok);  // applied to the orphan via FIFO
                                    // hand-off
  EXPECT_EQ(vfs_.inode(file_).mode(), 0600);
  EXPECT_EQ(vfs_.inode(file_).uid(), 500u);  // chown landed on the orphan
  EXPECT_FALSE(vfs_.exists("/d/f"));
  // /etc/passwd untouched: the paper's failure criterion.
  EXPECT_EQ(vfs_.inode(vfs_.lookup("/etc/passwd").value()).uid(), 0u);
  // The unlink demonstrably waited behind the chmod, and the chown
  // behind the unlink.
  const auto unlinks = trace_.journal.for_pid(a, "unlink");
  const auto chowns = trace_.journal.for_pid(v, "chown");
  ASSERT_EQ(unlinks.size(), 1u);
  ASSERT_EQ(chowns.size(), 1u);
  EXPECT_GT(chowns[0]->exit, unlinks[0]->exit);
}

TEST_F(ContentionTest, StatBlocksBehindRename) {
  // A stat landing while rename holds the directory semaphore takes the
  // slow path and returns only after the rename commits — the "stat
  // lengthened to 26us" effect of Figure 10.
  vfs_.create_file("/d/temp", 0, 0, 0644, 1);
  std::vector<Action> vic, att;
  vic.push_back(Action::service(rename_op("/d/temp", "/d/g")));
  att.push_back(Action::compute(20_us));  // rename holds the sem by now
  att.push_back(Action::service(stat_op("/d/g")));
  const auto v = spawn(std::move(vic), "gedit", 0);
  const auto a = spawn(std::move(att), "attacker", 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(err(v, 0), Errno::ok);
  const SyscallResult& st = tocttou::testing::script_results(*kernel_, a).at(0);
  EXPECT_EQ(st.err, Errno::ok);
  // The stat observed the POST-commit state (g exists, root-owned).
  EXPECT_TRUE(st.stat.owned_by_root());
  // And it took far longer than an uncontended stat (which is ~10us).
  const auto stats = trace_.journal.for_pid(a, "stat");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_GT(stats[0]->length(), 25_us);
}

TEST_F(ContentionTest, StatLocklessWhenFree) {
  std::vector<Action> att;
  att.push_back(Action::service(stat_op("/d/f")));
  const auto a = spawn(std::move(att), "attacker", 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(err(a, 0), Errno::ok);
  const auto stats = trace_.journal.for_pid(a, "stat");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_LT(stats[0]->length(), 12_us);
}

TEST_F(ContentionTest, SymlinkOverlapsUnlinkTruncate) {
  // Section 7: unlink releases the directory semaphore after the detach
  // and truncates afterwards, so a symlink issued right behind it
  // completes long before the unlink returns (the pipelined attack).
  std::vector<Action> t1, t2;
  t1.push_back(Action::service(unlink_op("/d/f")));
  t2.push_back(Action::compute(5_us));  // arrive during the detach
  t2.push_back(Action::service(symlink_op("/etc/passwd", "/d/f")));
  const auto u = spawn(std::move(t1), "unlinker", 500);
  const auto s = spawn(std::move(t2), "symlinker", 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(err(u, 0), Errno::ok);
  EXPECT_EQ(err(s, 0), Errno::ok);
  const auto unlinks = trace_.journal.for_pid(u, "unlink");
  const auto symlinks = trace_.journal.for_pid(s, "symlink");
  ASSERT_EQ(unlinks.size(), 1u);
  ASSERT_EQ(symlinks.size(), 1u);
  // The 64KB truncate (640us at this cost table) dominates the unlink;
  // the symlink finishes while it runs.
  EXPECT_LT(symlinks[0]->exit, unlinks[0]->exit);
  EXPECT_TRUE(vfs_.lookup("/d/f", false).ok());
}

TEST_F(ContentionTest, FifoOrderOnDirectorySemaphore) {
  // Three symlink creators on distinct names contend on /d's semaphore;
  // they must complete in arrival order (FIFO hand-off, no barging).
  std::vector<Action> p1, p2, p3;
  p1.push_back(Action::service(symlink_op("/x", "/d/l1")));
  p2.push_back(Action::compute(1_us));
  p2.push_back(Action::service(symlink_op("/x", "/d/l2")));
  p3.push_back(Action::compute(2_us));
  p3.push_back(Action::service(symlink_op("/x", "/d/l3")));
  // Three processes on two CPUs: plenty of overlap.
  const auto a = spawn(std::move(p1), "p1", 500);
  const auto b = spawn(std::move(p2), "p2", 500);
  const auto c = spawn(std::move(p3), "p3", 500);
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(err(a, 0), Errno::ok);
  EXPECT_EQ(err(b, 0), Errno::ok);
  EXPECT_EQ(err(c, 0), Errno::ok);
  const auto s1 = trace_.journal.for_pid(a, "symlink");
  const auto s2 = trace_.journal.for_pid(b, "symlink");
  const auto s3 = trace_.journal.for_pid(c, "symlink");
  ASSERT_EQ(s1.size(), 1u);
  ASSERT_EQ(s2.size(), 1u);
  ASSERT_EQ(s3.size(), 1u);
  EXPECT_LT(s1[0]->exit, s2[0]->exit);
  EXPECT_LT(s2[0]->exit, s3[0]->exit);
}

}  // namespace
}  // namespace tocttou::fs
