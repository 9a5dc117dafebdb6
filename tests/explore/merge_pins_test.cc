// Which states merge, pinned on 39 reference sweeps: the merge matrix
// (every testbed × victim × attacker, 4 KB, 8 buckets, bound 2, seed 7)
// and three more (up/vi at bound 3; perfbench's 64-bucket bound-1 up/vi
// sweep at 100 KB; smp/vi under 16 tenant processes). A change to what
// a digest reads — an op's or a program's field list, a hand-written
// digest — may change the digest's bytes but must merge exactly the
// same states, so each sweep's schedule count, explore.hash_merges and
// explore.leaves_executed are pinned. The sweeps run as the CLI runs
// them (`--explore=exhaustive` with its other defaults) at one worker.
//
// The pins catch a slip only when it changes these counts. Dropping a
// field from a digest usually does not (mutated builds that left every
// in-flight op, every inode, an op's phase or a chmod's mode out of the
// digest kept every pin), so the digest's soundness still rests on
// state_hash_soundness_test and on review of each field list.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "tocttou/explore/explorer.h"

namespace tocttou::explore {
namespace {

struct Sweep {
  const char* testbed;  // up | smp | multicore
  core::VictimKind victim;
  core::AttackerKind attacker;
  std::uint64_t file_bytes;
  int buckets;
  int bound;
  std::uint64_t seed;
  const char* background;  // BackgroundSpec text, "" for none
  // Pins.
  int schedules;
  std::uint64_t merges;
  std::uint64_t executed;
};

using V = core::VictimKind;
using A = core::AttackerKind;

#define MATRIX(tb, v, a, n, m, e) {tb, V::v, A::a, 4096, 8, 2, 7, "", n, m, e}

constexpr Sweep kSweeps[] = {
    MATRIX("up", vi, naive, 44, 12, 32),
    MATRIX("up", vi, prefaulted, 44, 8, 36),
    MATRIX("up", vi, pipelined, 112, 66, 46),
    MATRIX("up", gedit, naive, 44, 8, 36),
    MATRIX("up", gedit, prefaulted, 44, 8, 36),
    MATRIX("up", gedit, pipelined, 112, 46, 66),
    MATRIX("up", suspending, naive, 44, 8, 36),
    MATRIX("up", suspending, prefaulted, 44, 8, 36),
    MATRIX("up", suspending, pipelined, 192, 96, 96),
    MATRIX("up", sendmail, naive, 44, 8, 36),
    MATRIX("up", sendmail, prefaulted, 44, 8, 36),
    MATRIX("up", sendmail, pipelined, 112, 46, 66),
    MATRIX("smp", vi, naive, 16, 0, 16),
    MATRIX("smp", vi, prefaulted, 16, 0, 16),
    MATRIX("smp", vi, pipelined, 88, 0, 88),
    MATRIX("smp", gedit, naive, 16, 0, 16),
    MATRIX("smp", gedit, prefaulted, 24, 8, 16),
    MATRIX("smp", gedit, pipelined, 64, 0, 64),
    MATRIX("smp", suspending, naive, 32, 16, 16),
    MATRIX("smp", suspending, prefaulted, 32, 16, 16),
    MATRIX("smp", suspending, pipelined, 56, 40, 16),
    MATRIX("smp", sendmail, naive, 16, 0, 16),
    MATRIX("smp", sendmail, prefaulted, 16, 0, 16),
    MATRIX("smp", sendmail, pipelined, 16, 0, 16),
    MATRIX("multicore", vi, naive, 256, 160, 96),
    MATRIX("multicore", vi, prefaulted, 228, 132, 96),
    MATRIX("multicore", vi, pipelined, 632, 514, 118),
    MATRIX("multicore", gedit, naive, 156, 60, 96),
    MATRIX("multicore", gedit, prefaulted, 364, 268, 96),
    MATRIX("multicore", gedit, pipelined, 638, 542, 96),
    MATRIX("multicore", suspending, naive, 294, 262, 32),
    MATRIX("multicore", suspending, prefaulted, 276, 244, 32),
    MATRIX("multicore", suspending, pipelined, 850, 818, 32),
    MATRIX("multicore", sendmail, naive, 96, 0, 96),
    MATRIX("multicore", sendmail, prefaulted, 96, 0, 96),
    MATRIX("multicore", sendmail, pipelined, 144, 0, 144),
    {"up", V::vi, A::naive, 4096, 16, 3, 7, "", 136, 52, 84},
    {"up", V::vi, A::naive, 102400, 64, 1, 1, "", 202, 32, 170},
    {"smp", V::vi, A::naive, 4096, 4, 1, 7, "procs=16", 277, 0, 277},
};

#undef MATRIX

core::ScenarioConfig scenario(const Sweep& s) {
  core::ScenarioConfig c;
  const std::string tb = s.testbed;
  c.profile = tb == "up"    ? programs::testbed_uniprocessor_xeon()
              : tb == "smp" ? programs::testbed_smp_dual_xeon()
                            : programs::testbed_multicore_pentium_d();
  c.victim = s.victim;
  c.attacker = s.attacker;
  c.file_bytes = s.file_bytes;
  c.seed = s.seed;
  std::string err;
  EXPECT_TRUE(programs::BackgroundSpec::parse(s.background, &c.background,
                                              &err))
      << err;
  return c;
}

TEST(MergePinsTest, ReferenceSweepsMergeThePinnedStates) {
  std::uint64_t merges = 0;
  std::uint64_t executed = 0;
  for (const Sweep& s : kSweeps) {
    const core::ScenarioConfig cfg = scenario(s);
    SCOPED_TRACE(std::string(s.testbed) + "/" + core::to_string(s.victim) +
                 "/" + core::to_string(s.attacker) + " bytes=" +
                 std::to_string(s.file_bytes) + " buckets=" +
                 std::to_string(s.buckets) + " bound=" +
                 std::to_string(s.bound) + " background=" + s.background);
    ExploreConfig e;
    e.think_buckets = s.buckets;
    e.preemption_bound = s.bound;
    e.pct_seed = s.seed;
    e.jobs = 1;
    const ExploreResult r = explore(cfg, e);
    const std::uint64_t m = r.metrics.counter("explore.hash_merges");
    const std::uint64_t x = r.metrics.counter("explore.leaves_executed");
    EXPECT_EQ(r.schedules, s.schedules);
    EXPECT_EQ(m, s.merges);
    EXPECT_EQ(x, s.executed);
    merges += m;
    executed += x;
  }
  EXPECT_EQ(merges, 3486u);
  EXPECT_EQ(executed, 2431u);
}

}  // namespace
}  // namespace tocttou::explore
