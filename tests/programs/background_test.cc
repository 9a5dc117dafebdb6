// Multi-tenant background workload tests (DESIGN.md §11): spec parsing,
// staging, the fingerprint fold-in contract, and — the load-bearing
// property — byte-identical campaigns at any --jobs with a thousand-ish
// tenant processes churning in every round.
#include "tocttou/programs/background.h"

#include <gtest/gtest.h>

#include <string>

#include "tocttou/core/harness.h"
#include "tocttou/fs/vfs.h"

namespace tocttou::programs {
namespace {

BackgroundSpec parse_ok(const std::string& spec) {
  BackgroundSpec s;
  std::string err;
  EXPECT_TRUE(BackgroundSpec::parse(spec, &s, &err)) << err;
  return s;
}

TEST(BackgroundSpecTest, ParsesExplicitKeys) {
  const BackgroundSpec s =
      parse_ok("web=8,cron=2,build=4,log=3,intensity=2,docroot=64,inodes=500");
  EXPECT_EQ(s.web_servers, 8);
  EXPECT_EQ(s.cron_daemons, 2);
  EXPECT_EQ(s.build_jobs, 4);
  EXPECT_EQ(s.log_writers, 3);
  EXPECT_EQ(s.intensity, 2);
  EXPECT_EQ(s.docroot_files, 64);
  EXPECT_EQ(s.prestage_inodes, 500u);
  EXPECT_EQ(s.total_processes(), 17);
  EXPECT_FALSE(s.empty());
}

TEST(BackgroundSpecTest, ProcsShorthandDealsTenantsOut) {
  const BackgroundSpec s = parse_ok("procs=64");
  EXPECT_EQ(s.web_servers, 32);   // N/2
  EXPECT_EQ(s.log_writers, 16);   // N/4
  EXPECT_EQ(s.build_jobs, 8);     // N/8
  EXPECT_EQ(s.cron_daemons, 8);   // remainder
  EXPECT_EQ(s.total_processes(), 64);
}

TEST(BackgroundSpecTest, DescribeRoundTrips) {
  const BackgroundSpec s = parse_ok("procs=24,intensity=3,inodes=1000");
  const BackgroundSpec again = parse_ok(s.describe());
  EXPECT_EQ(again.describe(), s.describe());
}

TEST(BackgroundSpecTest, RejectsUnknownKeysAndBadValues) {
  BackgroundSpec s;
  std::string err;
  EXPECT_FALSE(BackgroundSpec::parse("webs=3", &s, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(BackgroundSpec::parse("web=x", &s, &err));
  EXPECT_FALSE(BackgroundSpec::parse("intensity=0", &s, &err));
  EXPECT_FALSE(BackgroundSpec::parse("web=-1", &s, &err));
}

TEST(BackgroundSpecTest, EmptySpecStagesAndSpawnsNothing) {
  fs::Vfs vfs(fs::SyscallCosts::xeon());
  const std::size_t before = vfs.inode_count();
  stage_background_tree(vfs, BackgroundSpec{});
  EXPECT_EQ(vfs.inode_count(), before);
}

TEST(BackgroundSpecTest, StagingReachesRequestedScale) {
  fs::Vfs vfs(fs::SyscallCosts::xeon());
  const BackgroundSpec s = parse_ok("procs=16,inodes=2000");
  stage_background_tree(vfs, s);
  EXPECT_GE(vfs.inode_count(), 2000u);
  EXPECT_TRUE(vfs.exists("/srv/www/f0"));
  EXPECT_TRUE(vfs.exists("/etc/crontab"));
  EXPECT_TRUE(vfs.exists("/tmp/build"));
  EXPECT_TRUE(vfs.exists("/var/log/app0.log"));
  EXPECT_TRUE(vfs.exists("/srv/data/t0/s0/u0/v0/f0"));
}

core::ScenarioConfig tenant_cfg() {
  core::ScenarioConfig cfg;
  cfg.profile = testbed_smp_dual_xeon();
  cfg.victim = core::VictimKind::vi;
  cfg.attacker = core::AttackerKind::naive;
  cfg.seed = 77;
  cfg.round_limit = Duration::seconds(2);
  cfg.background = parse_ok("procs=24,intensity=2,inodes=400");
  return cfg;
}

TEST(BackgroundFingerprintTest, FoldedInOnlyWhenNonEmpty) {
  core::ScenarioConfig plain;
  plain.profile = testbed_smp_dual_xeon();
  const std::uint32_t fp_plain = core::scenario_fingerprint(plain);

  // A default (empty) spec leaves the fingerprint untouched — this is
  // what keeps every schedule token minted before the field existed
  // valid.
  core::ScenarioConfig with_empty = plain;
  with_empty.background = BackgroundSpec{};
  EXPECT_EQ(core::scenario_fingerprint(with_empty), fp_plain);

  // A non-empty spec is a different scenario: different schedule space,
  // different fingerprint. Every field shift changes it.
  core::ScenarioConfig with_tenants = plain;
  with_tenants.background = parse_ok("procs=8");
  const std::uint32_t fp_tenants = core::scenario_fingerprint(with_tenants);
  EXPECT_NE(fp_tenants, fp_plain);
  with_tenants.background.intensity = 2;
  EXPECT_NE(core::scenario_fingerprint(with_tenants), fp_tenants);
}

TEST(BackgroundDeterminismTest, CampaignIsByteIdenticalAcrossJobs) {
  // The whole §11 contract in one assertion: a campaign with two dozen
  // churning tenants reduces to the same stats, the same detector
  // report, and the same summary text at jobs=1 and jobs=4.
  core::ScenarioConfig cfg = tenant_cfg();
  cfg.detect = true;
  const core::CampaignStats s1 = core::run_campaign(cfg, 12, true, 1);
  const core::CampaignStats s4 = core::run_campaign(cfg, 12, true, 4);
  EXPECT_EQ(s1.summary(), s4.summary());
  EXPECT_EQ(s1.total_events, s4.total_events);
  EXPECT_EQ(s1.success.successes(), s4.success.successes());
  EXPECT_EQ(s1.detect.races, s4.detect.races);
  EXPECT_EQ(s1.detect.windows, s4.detect.windows);
  EXPECT_EQ(s1.detect.rounds_with_race, s4.detect.rounds_with_race);
}

TEST(BackgroundDeterminismTest, TenantRoundsSurviveContextReuse) {
  // A tenant-heavy round run through a recycled RoundContext must be
  // observationally identical to a fresh-world run (the arena is a pure
  // allocation cache even with 10^2-10^3 extra processes and inodes).
  core::ScenarioConfig cfg = tenant_cfg();
  const core::RoundResult fresh = core::run_round(cfg, nullptr);
  core::RoundContext ctx;
  core::run_round(cfg, &ctx);  // prime the arenas
  const core::RoundResult reused = core::run_round(cfg, &ctx);
  EXPECT_GT(ctx.reuses(), 0u);
  EXPECT_EQ(fresh.success, reused.success);
  EXPECT_EQ(fresh.events, reused.events);
  EXPECT_EQ(fresh.end_time, reused.end_time);
  EXPECT_EQ(fresh.schedule_token, reused.schedule_token);
}

}  // namespace
}  // namespace tocttou::programs
