// Experiment harness: staging, success judgement, determinism,
// campaign aggregation.
#include "tocttou/core/harness.h"

#include <gtest/gtest.h>

namespace tocttou::core {
namespace {

ScenarioConfig smp_vi() {
  ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = VictimKind::vi;
  c.attacker = AttackerKind::naive;
  c.file_bytes = 50 * 1024;
  c.seed = 42;
  return c;
}

TEST(HarnessTest, RoundIsDeterministicForSeed) {
  ScenarioConfig c = smp_vi();
  c.record_journal = true;
  const RoundResult a = run_round(c);
  const RoundResult b = run_round(c);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.trace.journal.records().size(),
            b.trace.journal.records().size());
  for (std::size_t i = 0; i < a.trace.journal.records().size(); ++i) {
    EXPECT_EQ(a.trace.journal.records()[i].enter,
              b.trace.journal.records()[i].enter);
  }
}

TEST(HarnessTest, SeedsChangeTheSchedule) {
  ScenarioConfig a = smp_vi(), b = smp_vi();
  b.seed = 43;
  EXPECT_NE(run_round(a).end_time, run_round(b).end_time);
}

TEST(HarnessTest, SuccessfulRoundHandsOverPasswd) {
  // On the SMP with a 50KB file the vi attack is essentially certain.
  const RoundResult r = run_round(smp_vi());
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.victim_completed);
  EXPECT_TRUE(r.attacker_finished);
  EXPECT_GT(r.attacker_iterations, 0);
}

TEST(HarnessTest, NoAttackerMeansNoSuccess) {
  ScenarioConfig c = smp_vi();
  c.attacker = AttackerKind::none;
  const RoundResult r = run_round(c);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.victim_completed);
  EXPECT_EQ(r.attacker_pid, 0u);
}

TEST(HarnessTest, JournalOffByDefault) {
  const RoundResult r = run_round(smp_vi());
  EXPECT_TRUE(r.trace.journal.empty());
  EXPECT_FALSE(r.window.has_value());
}

TEST(HarnessTest, JournalAndAnalysisWhenRequested) {
  ScenarioConfig c = smp_vi();
  c.record_journal = true;
  const RoundResult r = run_round(c);
  EXPECT_FALSE(r.trace.journal.empty());
  ASSERT_TRUE(r.window.has_value());
  EXPECT_TRUE(r.window->window_found);
  EXPECT_TRUE(r.window->detected);
  EXPECT_TRUE(r.trace.log.empty());  // events only with record_events
}

TEST(HarnessTest, EventsOnlyWithRecordEvents) {
  ScenarioConfig c = smp_vi();
  c.record_journal = true;
  c.record_events = true;
  const RoundResult r = run_round(c);
  EXPECT_FALSE(r.trace.log.empty());
}

TEST(HarnessTest, CampaignAggregates) {
  ScenarioConfig c = smp_vi();
  const CampaignStats s = run_campaign(c, 10, /*measure_ld=*/true);
  EXPECT_EQ(s.success.trials(), 10u);
  EXPECT_GE(s.success.successes(), 8u);  // near-certain scenario
  EXPECT_FALSE(s.laxity_us.empty());
  EXPECT_FALSE(s.detection_us.empty());
  EXPECT_GT(s.total_events, 0u);
  EXPECT_EQ(s.anomalies, 0);
  EXPECT_NE(s.summary().find("success"), std::string::npos);
}

TEST(HarnessTest, CampaignIsDeterministic) {
  ScenarioConfig c = smp_vi();
  const CampaignStats a = run_campaign(c, 5);
  const CampaignStats b = run_campaign(c, 5);
  EXPECT_EQ(a.success.successes(), b.success.successes());
  EXPECT_EQ(a.total_events, b.total_events);
}

TEST(HarnessTest, SummaryGuardsLAndDIndependently) {
  // Regression: a campaign with laxity samples but no detection samples
  // used to print a bogus "D=0.0±0.00us".
  CampaignStats only_l;
  only_l.success.record(true);
  only_l.laxity_us.add(10.0);
  EXPECT_NE(only_l.summary().find("L=10.0"), std::string::npos);
  EXPECT_EQ(only_l.summary().find("D="), std::string::npos);

  CampaignStats only_d;
  only_d.success.record(false);
  only_d.detection_us.add(5.0);
  EXPECT_NE(only_d.summary().find("; D=5.0"), std::string::npos);
  EXPECT_EQ(only_d.summary().find("L="), std::string::npos);

  CampaignStats both;
  both.success.record(true);
  both.laxity_us.add(10.0);
  both.detection_us.add(5.0);
  EXPECT_NE(both.summary().find("L=10.0±0.00us D=5.0±0.00us"),
            std::string::npos);
}

TEST(HarnessTest, CampaignStatsMerge) {
  CampaignStats a, b;
  a.success.record(true);
  a.laxity_us.add(1.0);
  a.total_events = 10;
  a.anomalies = 1;
  b.success.record(false);
  b.detection_us.add(2.0);
  b.total_events = 5;
  b.victim_incomplete = 2;
  b.attacker_unfinished = 1;
  b.failed_rounds = 1;
  a.merge(b);
  EXPECT_EQ(a.success.trials(), 2u);
  EXPECT_EQ(a.success.successes(), 1u);
  EXPECT_EQ(a.laxity_us.count(), 1u);
  EXPECT_EQ(a.detection_us.count(), 1u);
  EXPECT_EQ(a.total_events, 15u);
  EXPECT_EQ(a.anomalies, 1);
  EXPECT_EQ(a.victim_incomplete, 2);
  EXPECT_EQ(a.attacker_unfinished, 1);
  EXPECT_EQ(a.failed_rounds, 1);
}

TEST(HarnessTest, RoundRecordsScheduleToken) {
  // Every round pins (scenario fingerprint, seed, think) in a replay
  // token the CLI can re-execute with --replay.
  const RoundResult r = run_round(smp_vi());
  EXPECT_EQ(r.schedule_token.rfind("st1:cfg=", 0), 0u);
  EXPECT_NE(r.schedule_token.find(":seed=42"), std::string::npos);
  EXPECT_NE(r.schedule_token.find(":think="), std::string::npos);
  // Pinning the think time must not change the token's identity fields.
  ScenarioConfig pinned = smp_vi();
  pinned.victim_think = Duration::micros(500);
  const RoundResult p = run_round(pinned);
  EXPECT_NE(p.schedule_token.find(":think=500000"), std::string::npos);
}

TEST(HarnessTest, AnomalousRoundsYieldReplayTokens) {
  // A round limit below the victim think time makes every round an
  // anomaly; the campaign keeps the first few replay tokens (capped).
  ScenarioConfig c = smp_vi();
  c.round_limit = Duration::micros(50);
  const CampaignStats s = run_campaign(c, kMaxAnomalyTokens + 4);
  EXPECT_EQ(s.anomalies, kMaxAnomalyTokens + 4);
  ASSERT_EQ(static_cast<int>(s.anomaly_tokens.size()), kMaxAnomalyTokens);
  for (const auto& t : s.anomaly_tokens) {
    EXPECT_EQ(t.rfind("st1:cfg=", 0), 0u) << t;
  }
}

TEST(HarnessTest, MergeCapsAnomalyTokens) {
  CampaignStats a, b;
  for (int i = 0; i < kMaxAnomalyTokens - 2; ++i) {
    a.anomaly_tokens.push_back("st1:a");
  }
  for (int i = 0; i < kMaxAnomalyTokens; ++i) {
    b.anomaly_tokens.push_back("st1:b");
  }
  a.merge(b);
  ASSERT_EQ(static_cast<int>(a.anomaly_tokens.size()), kMaxAnomalyTokens);
  EXPECT_EQ(a.anomaly_tokens[kMaxAnomalyTokens - 3], "st1:a");
  EXPECT_EQ(a.anomaly_tokens[kMaxAnomalyTokens - 2], "st1:b");
}

TEST(HarnessTest, FingerprintIgnoresSeedAndRecordFlags) {
  ScenarioConfig a = smp_vi(), b = smp_vi();
  b.seed = 999;
  b.record_journal = true;
  b.victim_think = Duration::micros(10);
  EXPECT_EQ(scenario_fingerprint(a), scenario_fingerprint(b));
  // Anything shaping the schedule space changes it.
  ScenarioConfig c = smp_vi();
  c.file_bytes += 1;
  EXPECT_NE(scenario_fingerprint(a), scenario_fingerprint(c));
  ScenarioConfig d = smp_vi();
  d.victim = VictimKind::gedit;
  EXPECT_NE(scenario_fingerprint(a), scenario_fingerprint(d));
}

TEST(HarnessTest, SendmailScenario) {
  ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = VictimKind::sendmail;
  c.attacker = AttackerKind::naive;
  c.seed = 7;
  // The sendmail victim appends through the swapped symlink only if the
  // attacker wins; either way the round must complete cleanly.
  const RoundResult r = run_round(c);
  EXPECT_TRUE(r.victim_completed);
}

TEST(HarnessTest, SuspendingScenarioNearCertainEverywhere) {
  for (auto profile : {programs::testbed_uniprocessor_xeon(),
                       programs::testbed_smp_dual_xeon()}) {
    ScenarioConfig c;
    c.profile = profile;
    c.victim = VictimKind::suspending;
    c.attacker = AttackerKind::naive;
    c.seed = 21;
    const CampaignStats s = run_campaign(c, 10);
    EXPECT_GE(s.success.rate(), 0.9) << profile.name;
  }
}

TEST(HarnessTest, ConventionAndSpecSelection) {
  EXPECT_EQ(d_convention_for(VictimKind::vi), DConvention::loop_iteration);
  EXPECT_EQ(d_convention_for(VictimKind::gedit),
            DConvention::stat_to_unlink);
  ScenarioConfig c = smp_vi();
  EXPECT_EQ(window_spec_for(c).check_call, "open");
  c.victim = VictimKind::gedit;
  EXPECT_EQ(window_spec_for(c).check_call, "rename");
  EXPECT_TRUE(window_spec_for(c).check_on_path2);
}

TEST(HarnessTest, ToStringCoverage) {
  EXPECT_STREQ(to_string(VictimKind::vi), "vi");
  EXPECT_STREQ(to_string(VictimKind::gedit), "gedit");
  EXPECT_STREQ(to_string(AttackerKind::naive), "naive");
  EXPECT_STREQ(to_string(AttackerKind::prefaulted), "prefaulted");
  EXPECT_STREQ(to_string(AttackerKind::pipelined), "pipelined");
}

}  // namespace
}  // namespace tocttou::core
