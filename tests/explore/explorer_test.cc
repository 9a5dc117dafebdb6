// Explorer enumeration: bounded completeness, budget behaviour, PCT
// determinism, and witness replay.
#include "tocttou/explore/explorer.h"

#include <gtest/gtest.h>

#include "tocttou/explore/replay.h"

namespace tocttou::explore {
namespace {

core::ScenarioConfig smp_gedit() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = core::VictimKind::gedit;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 7;
  return c;
}

TEST(ExplorerTest, CanonicalConfigStripsStochasticInputs) {
  core::ScenarioConfig c = smp_gedit();
  c.record_journal = true;
  const core::ScenarioConfig canon = canonical_explore_config(c);
  EXPECT_FALSE(canon.profile.machine.background.enabled);
  EXPECT_FALSE(canon.background_load);
  EXPECT_TRUE(canon.faults.empty());
  // Everything that shapes the scenario survives.
  EXPECT_EQ(canon.victim, c.victim);
  EXPECT_EQ(canon.file_bytes, c.file_bytes);
  EXPECT_TRUE(canon.record_journal);
}

TEST(ExplorerTest, ExhaustiveEnumeratesSmallSpaceCompletely) {
  ExploreConfig ecfg;
  ecfg.mode = ExploreMode::exhaustive;
  ecfg.think_buckets = 4;
  ecfg.preemption_bound = 1;
  const ExploreResult res = explore(smp_gedit(), ecfg);

  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.policy_schedules, 4);  // one policy schedule per bucket
  EXPECT_GE(res.schedules, res.policy_schedules);
  EXPECT_NEAR(res.total_mass, 1.0, 1e-9);
  EXPECT_GE(res.exact_success, 0.0);
  EXPECT_LE(res.exact_success, 1.0 + 1e-9);
  EXPECT_EQ(res.divergence_errors, 0);
  // The SMP gedit attack is near-certain: the policy schedules succeed,
  // so a witness with zero divergences exists.
  EXPECT_GT(res.successes, 0);
  ASSERT_TRUE(res.witness.has_value());
  EXPECT_EQ(res.witness_divergences, 0);
  EXPECT_GT(res.schedules_to_first_hit, 0);
}

TEST(ExplorerTest, ExplorationIsDeterministic) {
  ExploreConfig ecfg;
  ecfg.think_buckets = 4;
  ecfg.preemption_bound = 1;
  const ExploreResult a = explore(smp_gedit(), ecfg);
  const ExploreResult b = explore(smp_gedit(), ecfg);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.exact_success, b.exact_success);
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness) {
    EXPECT_EQ(a.witness->serialize(), b.witness->serialize());
  }
}

TEST(ExplorerTest, DeepeningWidensTheEnumeration) {
  ExploreConfig shallow;
  shallow.think_buckets = 2;
  shallow.preemption_bound = 0;
  ExploreConfig deep = shallow;
  deep.preemption_bound = 1;
  const ExploreResult a = explore(smp_gedit(), shallow);
  const ExploreResult b = explore(smp_gedit(), deep);
  EXPECT_EQ(a.schedules, 2);  // bound 0 = policy schedules only
  EXPECT_EQ(a.bound_reached, 0);
  EXPECT_GE(b.schedules, a.schedules);
  EXPECT_GE(b.bound_reached, 1);
  // Exact probability lives on the policy schedules; the bound must not
  // change it.
  EXPECT_EQ(a.exact_success, b.exact_success);
}

TEST(ExplorerTest, ScheduleCapTruncatesAndSaysSo) {
  ExploreConfig ecfg;
  ecfg.think_buckets = 8;
  ecfg.preemption_bound = 1;
  ecfg.max_schedules = 3;  // < think_buckets: cannot even finish bound 0
  const ExploreResult res = explore(smp_gedit(), ecfg);
  EXPECT_FALSE(res.complete);
  EXPECT_LE(res.schedules, 3);
}

TEST(ExplorerTest, PctModeIsSeededAndBounded) {
  ExploreConfig ecfg;
  ecfg.mode = ExploreMode::pct;
  ecfg.pct_schedules = 10;
  ecfg.pct_depth = 3;
  ecfg.pct_seed = 11;
  const ExploreResult a = explore(smp_gedit(), ecfg);
  const ExploreResult b = explore(smp_gedit(), ecfg);
  EXPECT_EQ(a.mode, ExploreMode::pct);
  EXPECT_EQ(a.rounds_executed, 10);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.schedules_to_first_hit, b.schedules_to_first_hit);
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness) {
    EXPECT_EQ(a.witness->serialize(), b.witness->serialize());
  }
  // SMP gedit succeeds on essentially every schedule.
  EXPECT_GT(a.successes, 0);
}

TEST(ExplorerTest, WitnessReplaysByteIdentically) {
  ExploreConfig ecfg;
  ecfg.think_buckets = 4;
  ecfg.preemption_bound = 1;
  const ExploreResult res = explore(smp_gedit(), ecfg);
  ASSERT_TRUE(res.witness.has_value());

  core::ScenarioConfig cfg = smp_gedit();
  cfg.record_journal = true;
  core::RoundResult r1, r2;
  std::string err;
  ASSERT_TRUE(replay_token(cfg, *res.witness, &r1, &err)) << err;
  ASSERT_TRUE(replay_token(cfg, *res.witness, &r2, &err)) << err;
  EXPECT_TRUE(r1.success);
  EXPECT_EQ(r1.end_time, r2.end_time);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.trace.journal.to_csv(), r2.trace.journal.to_csv());
}

TEST(ExplorerTest, ReplayRejectsForeignFingerprint) {
  const ExploreResult res = explore(smp_gedit(), ExploreConfig{
                                                    .think_buckets = 2,
                                                    .preemption_bound = 0,
                                                });
  ASSERT_TRUE(res.witness.has_value());
  ScheduleToken tok = *res.witness;
  tok.fingerprint ^= 0xdeadbeef;
  core::ScenarioConfig cfg = smp_gedit();
  core::RoundResult out;
  std::string err;
  EXPECT_FALSE(replay_token(cfg, tok, &out, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos);
}

TEST(ExplorerTest, RoundTokensReplayThroughTheHarness) {
  // Satellite: every round records a replay-ready token; feeding it back
  // through replay_token reproduces the round exactly.
  core::ScenarioConfig cfg = smp_gedit();
  cfg.record_journal = true;
  const core::RoundResult orig = core::run_round(cfg);
  ASSERT_FALSE(orig.schedule_token.empty());

  ScheduleToken tok;
  std::string err;
  ASSERT_TRUE(ScheduleToken::parse(orig.schedule_token, &tok, &err)) << err;
  EXPECT_EQ(tok.seed, cfg.seed);
  EXPECT_TRUE(tok.choices.empty());  // plain rounds follow the policy

  core::RoundResult back;
  ASSERT_TRUE(replay_token(cfg, tok, &back, &err)) << err;
  EXPECT_EQ(back.success, orig.success);
  EXPECT_EQ(back.events, orig.events);
  EXPECT_EQ(back.end_time, orig.end_time);
  EXPECT_EQ(back.trace.journal.to_csv(), orig.trace.journal.to_csv());
}

}  // namespace
}  // namespace tocttou::explore
