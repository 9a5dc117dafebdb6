// Property-based and parameterized suites: VFS invariants under random
// operation sequences, model monotonicity sweeps, and cross-testbed
// harness invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "tocttou/core/harness.h"
#include "tocttou/core/model.h"
#include "tocttou/fs/ops.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou {
namespace {

using namespace tocttou::literals;

// ---------------------------------------------------------------------------
// VFS invariants under random operation storms
// ---------------------------------------------------------------------------

/// A program issuing random file-system ops against a shared directory.
class FsFuzzer final : public sim::Program {
 public:
  FsFuzzer(std::uint64_t seed, int ops) : rng_(seed), ops_left_(ops) {}

  sim::Action next(sim::ProgramContext& ctx) override {
    // Harvest the previous open()'s fd, if any.
    if (pending_open_) {
      pending_open_ = false;
      if (ctx.result().fd >= 0) open_fds_.push_back(ctx.result().fd);
    }
    if (ops_left_-- <= 0) {
      // Close any fds we still hold before exiting.
      if (!open_fds_.empty()) {
        const int fd = open_fds_.back();
        open_fds_.pop_back();
        ++ops_left_;  // keep draining
        return sim::Action::service(fs::close_op(fd));
      }
      return sim::Action::exit_proc();
    }
    const std::string name =
        "/arena/f" + std::to_string(rng_.uniform_int(0, 5));
    switch (rng_.uniform_int(0, 6)) {
      case 0:
        return sim::Action::service(fs::stat_op(name));
      case 1: {
        if (open_fds_.size() > 4) {
          const int fd = open_fds_.back();
          open_fds_.pop_back();
          return sim::Action::service(fs::close_op(fd));
        }
        pending_open_ = true;
        return sim::Action::service(
            fs::open_op(name, fs::OpenFlags::write_create_trunc(), 0644));
      }
      case 2:
        return sim::Action::service(fs::unlink_op(name));
      case 3:
        return sim::Action::service(fs::rename_op(
            name, "/arena/f" + std::to_string(rng_.uniform_int(0, 5))));
      case 4:
        return sim::Action::service(fs::symlink_op("/arena/target", name));
      case 5: {
        if (!open_fds_.empty()) {
          const int fd =
              open_fds_[static_cast<std::size_t>(rng_.uniform_int(
                  0, static_cast<std::int64_t>(open_fds_.size()) - 1))];
          return sim::Action::service(fs::write_op(fd, 1024));
        }
        return sim::Action::service(fs::access_op(name));
      }
      default:
        return sim::Action::compute(rng_.uniform_duration(1_us, 10_us));
    }
  }

 private:
  Rng rng_;
  int ops_left_;
  std::vector<int> open_fds_;
  bool pending_open_ = false;
};

class FsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsPropertyTest, InvariantsSurviveRandomOpStorm) {
  fs::Vfs vfs(fs::SyscallCosts::pentium_d());
  vfs.mkdir_p("/arena", 500, 500, 0777);
  vfs.create_file("/arena/target", 500, 500, 0644, 64);

  sim::MachineSpec m;
  m.n_cpus = 3;
  m.noise = sim::NoiseModel::none();
  m.background.enabled = false;
  sim::Kernel kernel(m, std::make_unique<sched::LinuxLikeScheduler>(),
                     GetParam());
  kernel.set_vfs(&vfs);
  for (int i = 0; i < 3; ++i) {
    auto prog = std::make_unique<FsFuzzer>(
        mix_seed(GetParam(), static_cast<std::uint64_t>(i)), 120);
    sim::SpawnOptions opts;
    opts.name = "fuzz" + std::to_string(i);
    opts.uid = 500;
    opts.gid = 500;
    kernel.spawn(std::move(prog), opts);
  }
  ASSERT_TRUE(kernel.run_to_exit(SimTime::origin() + Duration::seconds(10)));

  // Invariant 1: no semaphore is held and no waiter is stranded.
  for (fs::Ino ino = 1; ino <= vfs.inode_count(); ++ino) {
    const auto& n = vfs.inode(ino);
    EXPECT_FALSE(n.sem().held()) << "ino " << ino;
    EXPECT_EQ(n.sem().waiters(), 0u) << "ino " << ino;
    EXPECT_FALSE(n.rename_in_progress()) << "ino " << ino;
  }
  // Invariant 2: nlink of every inode equals the number of directory
  // entries referencing it (root has its implicit self-link).
  std::map<fs::Ino, int> refs;
  for (fs::Ino ino = 1; ino <= vfs.inode_count(); ++ino) {
    const auto& n = vfs.inode(ino);
    if (!n.is_dir()) continue;
    for (const auto& [name, child] : n.entries()) refs[child]++;
  }
  refs[vfs.root()]++;
  for (fs::Ino ino = 1; ino <= vfs.inode_count(); ++ino) {
    EXPECT_EQ(vfs.inode(ino).nlink(), refs[ino]) << "ino " << ino;
  }
  // Invariant 3: no process left an fd open (fuzzers drain them).
  for (sim::Pid pid = 1; pid <= 3; ++pid) {
    EXPECT_EQ(vfs.open_fd_count(pid), 0u) << "pid " << pid;
  }
  // Invariant 4: open_refs are all zero once every process exited.
  for (fs::Ino ino = 1; ino <= vfs.inode_count(); ++ino) {
    EXPECT_EQ(vfs.inode(ino).open_refs(), 0) << "ino " << ino;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Model property sweeps
// ---------------------------------------------------------------------------

class ModelSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelSweepTest, NoisyRateBracketsDeterministicRate) {
  // For symmetric noise the Monte-Carlo estimate stays within a band of
  // the deterministic clamp except near the kinks, where it smooths.
  const auto l = Duration::micros(GetParam());
  const auto d = Duration::micros(30);
  const double det = core::laxity_success_rate(l, d);
  const double noisy =
      core::noisy_laxity_success_rate(l, 3_us, d, 2_us, 20000, 99);
  EXPECT_NEAR(noisy, det, 0.08);
}

INSTANTIATE_TEST_SUITE_P(LaxitySweep, ModelSweepTest,
                         ::testing::Values(-10, 0, 5, 10, 15, 20, 25, 30,
                                           40, 60));

TEST(ModelPropertyTest, Equation1MonotoneInEveryProbability) {
  core::Equation1 base;
  base.p_victim_suspended = 0.3;
  base.p_sched_given_suspended = 0.8;
  base.p_finish_given_suspended = 0.9;
  base.p_sched_given_running = 0.7;
  base.p_finish_given_running = 0.4;
  const double b = base.success();
  auto bump = [&](auto field) {
    core::Equation1 e = base;
    e.*field = std::min(1.0, e.*field + 0.1);
    return e.success();
  };
  EXPECT_GE(bump(&core::Equation1::p_sched_given_suspended), b);
  EXPECT_GE(bump(&core::Equation1::p_finish_given_suspended), b);
  EXPECT_GE(bump(&core::Equation1::p_sched_given_running), b);
  EXPECT_GE(bump(&core::Equation1::p_finish_given_running), b);
}

TEST(ModelPropertyTest, ViPredictionMonotoneInFileSize) {
  core::ViModelParams p;
  double prev = -1.0;
  for (std::uint64_t kb = 0; kb <= 2048; kb += 128) {
    const double r = core::vi_uniprocessor_prediction(p, kb * 1024);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

// ---------------------------------------------------------------------------
// Harness invariants across testbeds (parameterized)
// ---------------------------------------------------------------------------

struct TestbedCase {
  const char* name;
  programs::TestbedProfile (*make)();
};

// Keeps the ctest name free of the default printer's pointer bytes, which
// change with ASLR.
void PrintTo(const TestbedCase& c, std::ostream* os) { *os << c.name; }

class TestbedInvariantTest : public ::testing::TestWithParam<TestbedCase> {};

TEST_P(TestbedInvariantTest, RoundAlwaysTerminatesCleanly) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::ScenarioConfig c;
    c.profile = GetParam().make();
    c.victim = core::VictimKind::gedit;
    c.attacker = core::AttackerKind::prefaulted;
    c.file_bytes = 8 * 1024;
    c.seed = seed;
    const auto r = core::run_round(c);
    EXPECT_TRUE(r.victim_completed) << GetParam().name << " seed " << seed;
    EXPECT_GT(r.events, 0u);
  }
}

TEST_P(TestbedInvariantTest, MoreCpusNeverHurtTheAttacker) {
  // The paper's core claim, as a property: success rate on this testbed
  // is >= the uniprocessor rate for the same scenario (within noise).
  core::ScenarioConfig c;
  c.profile = GetParam().make();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 200 * 1024;
  c.seed = 555;
  const auto mp = core::run_campaign(c, 60);
  c.profile = programs::testbed_uniprocessor_xeon();
  const auto up = core::run_campaign(c, 60);
  EXPECT_GE(mp.success.rate() + 0.08, up.success.rate())
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Testbeds, TestbedInvariantTest,
    ::testing::Values(
        TestbedCase{"uniprocessor", &programs::testbed_uniprocessor_xeon},
        TestbedCase{"smp", &programs::testbed_smp_dual_xeon},
        TestbedCase{"multicore", &programs::testbed_multicore_pentium_d}),
    [](const ::testing::TestParamInfo<TestbedCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tocttou
