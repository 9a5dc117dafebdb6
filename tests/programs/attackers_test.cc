// Attack program models: detection behaviour, page-fault structure,
// and the pipelined hand-off.
#include "tocttou/programs/attackers.h"

#include <gtest/gtest.h>

#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::programs {
namespace {

using namespace tocttou::literals;
using sim::Kernel;
using sim::Pid;

class AttackerTest : public ::testing::Test {
 protected:
  AttackerTest() : vfs_(fs::SyscallCosts::pentium_d()) {
    vfs_.mkdir_p("/etc", 0, 0, 0755);
    passwd_ = vfs_.create_file("/etc/passwd", 0, 0, 0644, 1536);
    vfs_.mkdir_p("/home/alice", 500, 500, 0755);
    vfs_.mkdir_p("/tmp", 0, 0, 0777);
    vfs_.create_file("/tmp/dummy", 500, 500, 0644, 0);
    sim::MachineSpec m;
    m.n_cpus = 2;
    m.noise = sim::NoiseModel::none();
    m.background.enabled = false;
    m.context_switch_cost = Duration::zero();
    m.wakeup_latency = Duration::zero();
    m.libc_fault_cost = 6_us;
    kernel_ = std::make_unique<Kernel>(
        m, std::make_unique<sched::LinuxLikeScheduler>(), 1, &trace_);
  }

  AttackTarget target() const {
    return AttackTarget{"/home/alice/f.txt", "/etc/passwd", "/tmp/dummy"};
  }

  /// Stages the watched file as root-owned (the window is "open").
  void stage_window_open() {
    vfs_.create_file("/home/alice/f.txt", 0, 0, 0644, 1024);
  }
  void stage_window_closed() {
    vfs_.create_file("/home/alice/f.txt", 500, 500, 0644, 1024);
  }

  fs::Vfs vfs_;
  fs::Ino passwd_ = fs::kNoIno;
  trace::RoundTrace trace_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(AttackerTest, NaiveAttackerRedirectsRootOwnedFile) {
  stage_window_open();
  auto prog = std::make_unique<NaiveAttacker>(vfs_, target(), 5_us, 11_us);
  const auto* view = prog.get();
  kernel_->spawn(std::move(prog), {.name = "attacker", .uid = 500, .gid = 500});
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_TRUE(view->status().detected);
  EXPECT_TRUE(view->status().attack_done);
  EXPECT_EQ(view->status().iterations, 1);
  EXPECT_EQ(view->status().unlink_err, Errno::ok);
  EXPECT_EQ(view->status().symlink_err, Errno::ok);
  // The watched name is now a symlink to /etc/passwd.
  const auto l = vfs_.lookup("/home/alice/f.txt", false);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(vfs_.inode(l.value()).is_symlink());
  EXPECT_EQ(vfs_.lookup("/home/alice/f.txt", true).value(), passwd_);
}

TEST_F(AttackerTest, NaiveAttackerSpinsWhileWindowClosed) {
  stage_window_closed();
  auto prog = std::make_unique<NaiveAttacker>(vfs_, target(), 5_us, 11_us);
  const auto* view = prog.get();
  const Pid pid = kernel_->spawn(std::move(prog),
                                 {.name = "attacker", .uid = 500});
  // Run for 1ms of virtual time: no detection, many iterations.
  kernel_->run_until([] { return false; },
                     SimTime::origin() + Duration::millis(1));
  EXPECT_FALSE(view->status().detected);
  EXPECT_GT(view->status().iterations, 50);
  EXPECT_FALSE(kernel_->process(pid).exited());
  EXPECT_TRUE(vfs_.exists("/home/alice/f.txt"));
}

TEST_F(AttackerTest, NaiveAttackerTrapsOnFirstUnlink) {
  stage_window_open();
  auto prog = std::make_unique<NaiveAttacker>(vfs_, target(), 5_us, 11_us);
  const Pid pid = kernel_->spawn(std::move(prog),
                                 {.name = "attacker", .uid = 500});
  ASSERT_TRUE(kernel_->run_to_exit());
  // Traps: one for the stat page, one for the unlink/symlink page — the
  // latter right inside the window (the v1 weakness, Section 6.2.1).
  int traps = 0;
  for (const auto& ev : trace_.log.events()) {
    if (ev.pid == pid && ev.category == trace::Category::trap) ++traps;
  }
  EXPECT_EQ(traps, 2);
  // The unlink page trap happened between the detecting stat and the
  // unlink: unlink.enter - stat.exit >= comp 11us + trap 6us.
  const auto stats = trace_.journal.for_pid(pid, "stat");
  const auto unlinks = trace_.journal.for_pid(pid, "unlink");
  ASSERT_FALSE(stats.empty());
  ASSERT_EQ(unlinks.size(), 1u);
  EXPECT_GE(unlinks[0]->enter - stats.back()->exit, 16_us);
}

TEST_F(AttackerTest, PrefaultedAttackerHasNoTrapInWindow) {
  // Window closed for a few iterations, then opened: the dummy-file
  // unlink/symlink of every iteration pre-faulted the libc page, so the
  // post-detection gap is just the 2us fname selection.
  stage_window_closed();
  auto prog = std::make_unique<PrefaultedAttacker>(vfs_, target(), 2_us);
  const auto* view = prog.get();
  const Pid pid = kernel_->spawn(std::move(prog),
                                 {.name = "attacker", .uid = 500});
  kernel_->run_until([] { return false; },
                     SimTime::origin() + Duration::micros(200));
  ASSERT_GT(view->status().iterations, 2);  // warmed up on the dummy
  // Open the window mid-flight.
  vfs_.unlink_entry(vfs_.lookup("/home/alice").value(), "f.txt");
  vfs_.create_file("/home/alice/f.txt", 0, 0, 0644, 1024);
  ASSERT_TRUE(kernel_->run_to_exit(SimTime::origin() + Duration::millis(5)));
  EXPECT_TRUE(view->status().attack_done);
  EXPECT_EQ(vfs_.lookup("/home/alice/f.txt", true).value(), passwd_);

  // No trap after the detecting stat: gap stat.exit -> unlink.enter is
  // only the selection computation.
  const auto unlinks = trace_.journal.for_pid(pid, "unlink");
  const trace::SyscallRecord* real_unlink = nullptr;
  for (const auto* u : unlinks) {
    if (trace_.journal.path(*u) == "/home/alice/f.txt") real_unlink = u;
  }
  ASSERT_NE(real_unlink, nullptr);
  const trace::SyscallRecord* detect = nullptr;
  for (const auto* s : trace_.journal.for_pid(pid, "stat")) {
    if (s->st_uid && *s->st_uid == 0 && s->exit <= real_unlink->enter) {
      detect = s;
    }
  }
  ASSERT_NE(detect, nullptr);
  EXPECT_LT(real_unlink->enter - detect->exit, 5_us);
}

TEST_F(AttackerTest, PrefaultedAttackerRecreatesDummyEachIteration) {
  stage_window_closed();
  auto prog = std::make_unique<PrefaultedAttacker>(vfs_, target(), 2_us);
  kernel_->spawn(std::move(prog), {.name = "attacker", .uid = 500});
  kernel_->run_until([] { return false; },
                     SimTime::origin() + Duration::millis(1));
  // The dummy still exists (as a symlink now) — unlink+symlink every loop.
  const auto d = vfs_.lookup("/tmp/dummy", false);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(vfs_.inode(d.value()).is_symlink());
}

TEST_F(AttackerTest, PipelinedAttackOverlapsSymlinkWithUnlink) {
  // Large file => long truncate; the helper's symlink must complete
  // before the unlink returns (Figure 11's "parallel" bars).
  vfs_.create_file("/home/alice/f.txt", 0, 0, 0644, 500 * 1024);
  PipelinedAttackState state;
  auto main = std::make_unique<PipelinedAttackerMain>(vfs_, target(), 5_us,
                                                      1_us, &state);
  auto helper = std::make_unique<PipelinedAttackerSymlinker>(vfs_, target(),
                                                             1_us, &state);
  const Pid m = kernel_->spawn(std::move(main),
                               {.name = "attacker", .uid = 500});
  const Pid h = kernel_->spawn(std::move(helper),
                               {.name = "attacker/symlink", .uid = 500});
  ASSERT_TRUE(kernel_->run_to_exit(SimTime::origin() + Duration::seconds(1)));
  EXPECT_TRUE(state.status.attack_done);
  EXPECT_EQ(vfs_.lookup("/home/alice/f.txt", true).value(), passwd_);
  const auto unlinks = trace_.journal.for_pid(m, "unlink");
  const auto symlinks = trace_.journal.for_pid(h, "symlink");
  ASSERT_EQ(unlinks.size(), 1u);
  ASSERT_GE(symlinks.size(), 1u);
  // 500KB x 0.4ns/B truncate dominates; the symlink lands well inside it.
  EXPECT_LT(symlinks.back()->exit, unlinks[0]->exit);
}

TEST_F(AttackerTest, PipelinedHelperRetriesOnEexist) {
  // Stage the window and wake the helper first with a long-blocked main:
  // the helper's first symlink hits EEXIST (name still present), then it
  // must retry and eventually succeed after the unlink.
  vfs_.create_file("/home/alice/f.txt", 0, 0, 0644, 1024);
  PipelinedAttackState state;
  // Give the main thread a huge handoff delay so the helper's symlink
  // reliably arrives before the unlink.
  auto main = std::make_unique<PipelinedAttackerMain>(
      vfs_, target(), 5_us, /*handoff=*/Duration::micros(200), &state);
  auto helper = std::make_unique<PipelinedAttackerSymlinker>(vfs_, target(),
                                                             10_us, &state);
  const Pid h = kernel_->spawn(std::move(helper),
                               {.name = "attacker/symlink", .uid = 500});
  kernel_->spawn(std::move(main), {.name = "attacker", .uid = 500});
  ASSERT_TRUE(kernel_->run_to_exit(SimTime::origin() + Duration::seconds(1)));
  EXPECT_TRUE(state.status.attack_done);
  const auto symlinks = trace_.journal.for_pid(h, "symlink");
  EXPECT_GT(symlinks.size(), 1u);  // at least one EEXIST retry
  EXPECT_EQ(vfs_.lookup("/home/alice/f.txt", true).value(), passwd_);
}

}  // namespace
}  // namespace tocttou::programs
