// End-to-end defense tests: the fd-attr remedy must reduce the privilege
// escalation rate to zero on every testbed, against every attacker.
#include <gtest/gtest.h>

#include "tocttou/core/harness.h"

namespace tocttou::core {
namespace {

struct DefenseCase {
  const char* name;
  programs::TestbedProfile (*profile)();
  VictimKind victim;
  AttackerKind attacker;
};

// Keeps the ctest name free of the default printer's pointer bytes, which
// change with ASLR.
void PrintTo(const DefenseCase& c, std::ostream* os) { *os << c.name; }

class DefenseTest : public ::testing::TestWithParam<DefenseCase> {};

TEST_P(DefenseTest, FdAttrRemedyStopsPrivilegeEscalation) {
  ScenarioConfig cfg;
  cfg.profile = GetParam().profile();
  cfg.victim = GetParam().victim;
  cfg.attacker = GetParam().attacker;
  cfg.file_bytes = 64 * 1024;
  cfg.seed = 888;
  cfg.defended_victim = true;
  const auto s = run_campaign(cfg, 60);
  EXPECT_EQ(s.success.successes(), 0u) << GetParam().name;
  EXPECT_EQ(s.anomalies, 0) << GetParam().name;
}

TEST_P(DefenseTest, VulnerableBaselineStillFalls) {
  // Sanity: the same scenario WITHOUT the remedy is exploitable on
  // multiprocessors (guards against the defense test passing vacuously).
  if (GetParam().profile().machine.n_cpus == 1) GTEST_SKIP();
  if (GetParam().attacker == AttackerKind::naive &&
      GetParam().profile().machine.n_cpus == 4 &&
      GetParam().victim == VictimKind::gedit) {
    GTEST_SKIP() << "gedit+v1 on the multicore loses anyway (Figure 8)";
  }
  ScenarioConfig cfg;
  cfg.profile = GetParam().profile();
  cfg.victim = GetParam().victim;
  cfg.attacker = GetParam().attacker;
  cfg.file_bytes = 64 * 1024;
  cfg.seed = 889;
  cfg.defended_victim = false;
  const auto s = run_campaign(cfg, 60);
  EXPECT_GT(s.success.rate(), 0.2) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, DefenseTest,
    ::testing::Values(
        DefenseCase{"vi_smp_naive", &programs::testbed_smp_dual_xeon,
                    VictimKind::vi, AttackerKind::naive},
        DefenseCase{"vi_up_naive", &programs::testbed_uniprocessor_xeon,
                    VictimKind::vi, AttackerKind::naive},
        DefenseCase{"gedit_smp_naive", &programs::testbed_smp_dual_xeon,
                    VictimKind::gedit, AttackerKind::naive},
        DefenseCase{"gedit_mc_prefaulted",
                    &programs::testbed_multicore_pentium_d,
                    VictimKind::gedit, AttackerKind::prefaulted},
        DefenseCase{"vi_smp_pipelined", &programs::testbed_smp_dual_xeon,
                    VictimKind::vi, AttackerKind::pipelined}),
    [](const ::testing::TestParamInfo<DefenseCase>& info) {
      return std::string(info.param.name);
    });

TEST(DefenseDetailTest, DefendedGeditNeverExposesRootOwnedName) {
  // With fchmod/fchown before the rename, the watched name is never
  // root-owned: the attacker's detection loop must come up empty.
  ScenarioConfig cfg;
  cfg.profile = programs::testbed_smp_dual_xeon();
  cfg.victim = VictimKind::gedit;
  cfg.attacker = AttackerKind::naive;
  cfg.defended_victim = true;
  cfg.record_journal = true;
  cfg.seed = 890;
  const auto r = run_round(cfg);
  ASSERT_TRUE(r.victim_completed);
  for (const auto* rec : r.trace.journal.for_pid(r.attacker_pid, "stat")) {
    if (rec->st_uid) {
      EXPECT_NE(*rec->st_uid, 0u);
    }
  }
  EXPECT_FALSE(r.attacker_finished);
}

TEST(DefenseDetailTest, DefendedViCanLoseTheFileButNotPasswd) {
  // vi's defended variant still has a root-owned window (the new file is
  // created by root), so the attacker may still redirect the NAME — a
  // data-loss bug — but the fchown binds to vi's own inode and the
  // passwd takeover fails.
  ScenarioConfig cfg;
  cfg.profile = programs::testbed_smp_dual_xeon();
  cfg.victim = VictimKind::vi;
  cfg.attacker = AttackerKind::naive;
  cfg.file_bytes = 200 * 1024;
  cfg.defended_victim = true;
  cfg.record_journal = true;
  cfg.seed = 891;
  const auto r = run_round(cfg);
  ASSERT_TRUE(r.victim_completed);
  EXPECT_FALSE(r.success);          // no escalation
  EXPECT_TRUE(r.attacker_finished);  // but the name redirection still ran
  // (window analysis reports no <open, chown> pair: the pair is gone.)
  EXPECT_FALSE(r.window && r.window->window_found);
}

}  // namespace
}  // namespace tocttou::core
