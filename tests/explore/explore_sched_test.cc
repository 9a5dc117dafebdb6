// Choice sources and the exploring scheduler shim: an empty-prefix
// GuidedSource must be invisible (byte-identical rounds), forced
// prefixes must be validated, and PCT priorities must be deterministic
// per seed.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tocttou/core/harness.h"
#include "tocttou/explore/choice_source.h"
#include "tocttou/explore/exploring_scheduler.h"

namespace tocttou::explore {
namespace {

core::ScenarioConfig smp_vi() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 50 * 1024;
  c.seed = 42;
  c.record_journal = true;
  return c;
}

core::ScenarioConfig with_source(core::ScenarioConfig c, GuidedSource* src) {
  c.scheduler_factory = [src](const core::ScenarioConfig& cfg) {
    return std::make_unique<ExploringScheduler>(core::default_sched_params(cfg),
                                                src);
  };
  return c;
}

TEST(ExploringSchedulerTest, EmptyPrefixIsInvisible) {
  // The shim resolving every choice the way the policy would IS the
  // policy: the round must be indistinguishable from an unshimmed one.
  const core::ScenarioConfig plain = smp_vi();
  const core::RoundResult a = core::run_round(plain);

  GuidedSource src({});
  const core::RoundResult b = core::run_round(with_source(plain, &src));

  EXPECT_TRUE(src.ok()) << src.error();
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.schedule_token, b.schedule_token);
  ASSERT_EQ(a.trace.journal.records().size(),
            b.trace.journal.records().size());
  for (std::size_t i = 0; i < a.trace.journal.records().size(); ++i) {
    EXPECT_EQ(a.trace.journal.records()[i].enter,
              b.trace.journal.records()[i].enter);
  }
}

TEST(ExploringSchedulerTest, SitesRecordPolicyAgreement) {
  // A 2-CPU round hits at least a placement choice; with an empty prefix
  // every recorded site must have chosen == policy.
  GuidedSource src({});
  core::run_round(with_source(smp_vi(), &src));
  ASSERT_FALSE(src.sites().empty());
  for (const SiteRecord& s : src.sites()) {
    EXPECT_EQ(s.choice.chosen, s.policy);
    EXPECT_GE(s.choice.n, 2);
    EXPECT_LT(s.choice.chosen, s.choice.n);
  }
  EXPECT_EQ(src.consumed(), 0u);
  EXPECT_EQ(src.token_choices().size(), src.sites().size());
}

TEST(ExploringSchedulerTest, PrefixMismatchFallsBackToPolicy) {
  // Record the real first site, then replay with a deliberately wrong
  // kind: the source must flag the divergence once and still let the
  // round complete on policy choices.
  GuidedSource probe({});
  const core::RoundResult want = core::run_round(with_source(smp_vi(), &probe));
  ASSERT_FALSE(probe.sites().empty());
  const Choice real = probe.sites()[0].choice;

  Choice wrong = real;
  wrong.kind =
      real.kind == ChoiceKind::pick ? ChoiceKind::place : ChoiceKind::pick;
  GuidedSource src({wrong});
  const core::RoundResult got = core::run_round(with_source(smp_vi(), &src));

  EXPECT_FALSE(src.ok());
  EXPECT_NE(src.error().find("mismatch"), std::string::npos);
  EXPECT_EQ(src.consumed(), 1u);
  // Fallback means the schedule equals the pure-policy one.
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.events, want.events);
}

TEST(ExploringSchedulerTest, MatchingPrefixIsConsumedVerbatim) {
  GuidedSource probe({});
  core::run_round(with_source(smp_vi(), &probe));
  ASSERT_FALSE(probe.sites().empty());

  // Feed back the full recorded choice sequence: it must match site for
  // site (the kernel is deterministic), consuming every entry.
  GuidedSource src(probe.token_choices());
  core::run_round(with_source(smp_vi(), &src));
  EXPECT_TRUE(src.ok()) << src.error();
  EXPECT_EQ(src.consumed(), probe.sites().size());
  EXPECT_EQ(src.token_choices(), probe.token_choices());
}

TEST(PctSourceTest, SameSeedSameChoices) {
  const std::vector<sim::Pid> procs = {1, 2, 3};

  ChoiceContext pick;
  pick.kind = ChoiceKind::pick;
  pick.n = 3;
  pick.policy = 0;
  pick.procs = procs;
  ChoiceContext preempt;
  preempt.kind = ChoiceKind::preempt;
  preempt.n = 2;
  preempt.policy = 0;
  preempt.procs = {procs[0], procs[1]};  // {woken, running}

  auto drive = [&](std::uint64_t seed) {
    PctSource src(PctParams{.seed = seed, .depth = 3, .expected_steps = 8});
    std::vector<int> out;
    for (int i = 0; i < 6; ++i) {
      out.push_back(src.choose(i % 2 == 0 ? pick : preempt));
    }
    EXPECT_EQ(src.procs_seen(), 3);
    EXPECT_EQ(src.steps(), 6);
    return out;
  };
  EXPECT_EQ(drive(7), drive(7));
  // Placement carries no PCT priority semantics: policy is followed.
  ChoiceContext place;
  place.kind = ChoiceKind::place;
  place.n = 2;
  place.policy = 1;
  place.cpus = {0, 1};
  PctSource src(PctParams{.seed = 1});
  EXPECT_EQ(src.choose(place), 1);
}

}  // namespace
}  // namespace tocttou::explore
