// Victim program models: syscall sequences and window structure.
#include "tocttou/programs/victims.h"

#include <gtest/gtest.h>

#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::programs {
namespace {

using namespace tocttou::literals;
using sim::Kernel;
using sim::Pid;

class VictimTest : public ::testing::Test {
 protected:
  VictimTest() : vfs_(fs::SyscallCosts::xeon()) {
    vfs_.mkdir_p("/home/alice", 500, 500, 0755);
    file_ = vfs_.create_file("/home/alice/f.txt", 500, 500, 0644, 64 * 1024);
    sim::MachineSpec m;
    m.n_cpus = 1;
    m.noise = sim::NoiseModel::none();
    m.background.enabled = false;
    m.context_switch_cost = Duration::zero();
    m.wakeup_latency = Duration::zero();
    kernel_ = std::make_unique<Kernel>(
        m, std::make_unique<sched::LinuxLikeScheduler>(), 1, &trace_);
  }

  std::vector<std::string> syscall_sequence(Pid pid) const {
    std::vector<std::string> out;
    for (const auto& r : trace_.journal.records()) {
      if (r.pid == pid) out.emplace_back(trace_.journal.name(r));
    }
    return out;
  }

  fs::Vfs vfs_;
  fs::Ino file_ = fs::kNoIno;
  trace::RoundTrace trace_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(VictimTest, ViEmitsFigureOneSequence) {
  ViVictimConfig cfg;
  cfg.wfname = "/home/alice/f.txt";
  cfg.backup_name = "/home/alice/f.txt~";
  cfg.file_bytes = 20 * 1024;  // 3 chunks of 8KB
  const Pid pid = kernel_->spawn(std::make_unique<ViVictim>(vfs_, cfg),
                                 {.name = "vi", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(syscall_sequence(pid),
            (std::vector<std::string>{
                "open", "read", "close",              // startup load
                "rename", "open", "write", "write", "write", "close",
                "chown"}));
}

TEST_F(VictimTest, ViRestoresOwnershipWhenUnattacked) {
  ViVictimConfig cfg;
  cfg.wfname = "/home/alice/f.txt";
  cfg.backup_name = "/home/alice/f.txt~";
  cfg.file_bytes = 1024;
  cfg.owner_uid = 500;
  cfg.owner_gid = 500;
  kernel_->spawn(std::make_unique<ViVictim>(vfs_, cfg),
                 {.name = "vi", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  const auto ino = vfs_.lookup("/home/alice/f.txt");
  ASSERT_TRUE(ino.ok());
  EXPECT_NE(ino.value(), file_);  // fresh inode under the old name
  EXPECT_EQ(vfs_.inode(ino.value()).uid(), 500u);  // chowned back
  EXPECT_EQ(vfs_.inode(ino.value()).size_bytes(), 1024u);
  EXPECT_TRUE(vfs_.exists("/home/alice/f.txt~"));  // backup kept
}

TEST_F(VictimTest, ViWindowSpansWholeWrite) {
  ViVictimConfig cfg;
  cfg.wfname = "/home/alice/f.txt";
  cfg.backup_name = "/home/alice/f.txt~";
  cfg.file_bytes = 64 * 1024;
  const Pid pid = kernel_->spawn(std::make_unique<ViVictim>(vfs_, cfg),
                                 {.name = "vi", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  // window = save-open exit .. chown enter must include all the writes.
  const auto opens = trace_.journal.for_pid(pid, "open");
  const auto chowns = trace_.journal.for_pid(pid, "chown");
  ASSERT_EQ(opens.size(), 2u);  // load + save
  ASSERT_EQ(chowns.size(), 1u);
  const Duration window = chowns[0]->enter - opens[1]->exit;
  // 8 chunks x (write_base 9 + 16us/KB x 8KB = 137us) >= 1ms.
  EXPECT_GT(window, Duration::millis(1));
}

TEST_F(VictimTest, GeditEmitsFigureThreeSequence) {
  GeditVictimConfig cfg;
  cfg.real_filename = "/home/alice/f.txt";
  cfg.temp_filename = "/home/alice/.gedit-tmp";
  cfg.backup_name = "/home/alice/f.txt~";
  cfg.file_bytes = 8 * 1024;
  const Pid pid = kernel_->spawn(std::make_unique<GeditVictim>(vfs_, cfg),
                                 {.name = "gedit", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(syscall_sequence(pid),
            (std::vector<std::string>{
                "open", "read", "close",               // startup load
                "open", "write", "close",              // scratch file
                "rename",                              // backup
                "rename",                              // temp -> real
                "chmod", "chown"}));
}

TEST_F(VictimTest, GeditTinyWindowBetweenRenameAndChmod) {
  GeditVictimConfig cfg;
  cfg.real_filename = "/home/alice/f.txt";
  cfg.temp_filename = "/home/alice/.gedit-tmp";
  cfg.backup_name = "/home/alice/f.txt~";
  cfg.file_bytes = 8 * 1024;
  const Pid pid = kernel_->spawn(std::make_unique<GeditVictim>(vfs_, cfg),
                                 {.name = "gedit", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  const auto renames = trace_.journal.for_pid(pid, "rename");
  const auto chmods = trace_.journal.for_pid(pid, "chmod");
  ASSERT_EQ(renames.size(), 2u);
  ASSERT_EQ(chmods.size(), 1u);
  const Duration window = chmods[0]->enter - renames[1]->exit;
  // The xeon comp gap is 43us (+ the first-touch chmod trap): far
  // smaller than vi's window and independent of the file size.
  EXPECT_LT(window, 80_us);
  EXPECT_GT(window, 40_us);
}

TEST_F(VictimTest, GeditRestoresModeAndOwnerWhenUnattacked) {
  GeditVictimConfig cfg;
  cfg.real_filename = "/home/alice/f.txt";
  cfg.temp_filename = "/home/alice/.gedit-tmp";
  cfg.backup_name = "/home/alice/f.txt~";
  cfg.owner_mode = 0640;
  kernel_->spawn(std::make_unique<GeditVictim>(vfs_, cfg),
                 {.name = "gedit", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  const auto ino = vfs_.lookup("/home/alice/f.txt");
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(vfs_.inode(ino.value()).uid(), 500u);
  EXPECT_EQ(vfs_.inode(ino.value()).mode(), 0640);
  EXPECT_FALSE(vfs_.exists("/home/alice/.gedit-tmp"));  // renamed away
  EXPECT_TRUE(vfs_.exists("/home/alice/f.txt~"));
}

TEST_F(VictimTest, SuspendingVictimSleepsInsideWindow) {
  SuspendingVictimConfig cfg;
  cfg.path = "/home/alice/f.txt";
  cfg.io_time = Duration::millis(5);
  const Pid pid =
      kernel_->spawn(std::make_unique<SuspendingVictim>(vfs_, cfg),
                     {.name = "rpm", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  const auto opens = trace_.journal.for_pid(pid, "open");
  const auto chowns = trace_.journal.for_pid(pid, "chown");
  ASSERT_EQ(opens.size(), 1u);
  ASSERT_EQ(chowns.size(), 1u);
  EXPECT_GT(chowns[0]->enter - opens[0]->exit, Duration::millis(5));
}

TEST_F(VictimTest, SendmailRejectsPreexistingSymlink) {
  vfs_.mkdir_p("/var/mail", 0, 0, 0755);
  vfs_.mkdir_p("/etc", 0, 0, 0755);
  vfs_.create_file("/etc/passwd", 0, 0, 0644, 100);
  vfs_.create_symlink("/var/mail/alice", "/etc/passwd", 500, 500);
  SendmailVictimConfig cfg;
  cfg.mailbox = "/var/mail/alice";
  auto prog = std::make_unique<SendmailVictim>(vfs_, cfg);
  const auto* view = prog.get();
  kernel_->spawn(std::move(prog), {.name = "sendmail", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_TRUE(view->rejected());
  EXPECT_EQ(vfs_.inode(vfs_.lookup("/etc/passwd").value()).size_bytes(),
            100u);  // nothing appended
}

TEST_F(VictimTest, SendmailAppendsToHonestMailbox) {
  vfs_.mkdir_p("/var/mail", 0, 0, 0755);
  vfs_.create_file("/var/mail/alice", 500, 500, 0600, 100);
  SendmailVictimConfig cfg;
  cfg.mailbox = "/var/mail/alice";
  cfg.message_bytes = 2048;
  kernel_->spawn(std::make_unique<SendmailVictim>(vfs_, cfg),
                 {.name = "sendmail", .uid = 0});
  ASSERT_TRUE(kernel_->run_to_exit());
  EXPECT_EQ(
      vfs_.inode(vfs_.lookup("/var/mail/alice").value()).size_bytes(),
      100u + 2048u);
}

}  // namespace
}  // namespace tocttou::programs
