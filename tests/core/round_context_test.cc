// RoundContext reuse: a round executed in a recycled context must be
// byte-identical to the same round run with fresh construction — same
// result fields, same journal and event CSVs, same schedule token, same
// metrics JSON. The contexts here are deliberately "dirtied" by running
// DIFFERENT rounds (other testbed, victim, seed) first, so leftover
// state of any kind would show up as a diff.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "../testing/programs.h"
#include "tocttou/common/error.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/core/round_run.h"

namespace tocttou::core {
namespace {

ScenarioConfig smp_vi(std::uint64_t seed) {
  ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = VictimKind::vi;
  c.attacker = AttackerKind::naive;
  c.file_bytes = 50 * 1024;
  c.seed = seed;
  return c;
}

ScenarioConfig up_gedit(std::uint64_t seed) {
  ScenarioConfig c;
  c.profile = programs::testbed_uniprocessor_xeon();
  c.victim = VictimKind::gedit;
  c.attacker = AttackerKind::prefaulted;
  c.file_bytes = 20 * 1024;
  c.seed = seed;
  return c;
}

ScenarioConfig multicore_gedit(std::uint64_t seed) {
  ScenarioConfig c;
  c.profile = programs::testbed_multicore_pentium_d();
  c.victim = VictimKind::gedit;
  c.attacker = AttackerKind::pipelined;
  c.file_bytes = 50 * 1024;
  c.seed = seed;
  return c;
}

std::string faults_key(const sim::FaultStats& f) {
  return std::to_string(f.errors_injected) + "/" +
         std::to_string(f.latency_spikes) + "/" +
         std::to_string(f.wakeups_delayed) + "/" +
         std::to_string(f.wakeups_dropped) + "/" + std::to_string(f.kills) +
         "/" + std::to_string(f.retries) + "/" +
         std::to_string(f.invariant_violations) + "/" +
         std::to_string(f.degraded_rounds);
}

// Full observable surface of a round, flattened for string comparison.
void expect_identical(const RoundResult& fresh, const RoundResult& reused) {
  EXPECT_EQ(fresh.success, reused.success);
  EXPECT_EQ(fresh.victim_completed, reused.victim_completed);
  EXPECT_EQ(fresh.hit_time_limit, reused.hit_time_limit);
  EXPECT_EQ(fresh.attacker_finished, reused.attacker_finished);
  EXPECT_EQ(fresh.attacker_iterations, reused.attacker_iterations);
  EXPECT_EQ(fresh.events, reused.events);
  EXPECT_EQ(fresh.end_time, reused.end_time);
  EXPECT_EQ(fresh.victim_pid, reused.victim_pid);
  EXPECT_EQ(fresh.attacker_pid, reused.attacker_pid);
  EXPECT_EQ(fresh.attacker_pid2, reused.attacker_pid2);
  EXPECT_EQ(fresh.schedule_token, reused.schedule_token);
  EXPECT_EQ(fresh.audit_violations, reused.audit_violations);
  EXPECT_EQ(faults_key(fresh.faults), faults_key(reused.faults));
  EXPECT_EQ(fresh.window.has_value(), reused.window.has_value());
  if (fresh.window && reused.window) {
    EXPECT_EQ(fresh.window->detected, reused.window->detected);
    EXPECT_EQ(fresh.window->window_found, reused.window->window_found);
  }
  // Byte-for-byte: the serialized journal, event log, and metrics.
  EXPECT_EQ(fresh.trace.journal.to_csv(), reused.trace.journal.to_csv());
  EXPECT_EQ(fresh.trace.log.to_csv(), reused.trace.log.to_csv());
  EXPECT_EQ(fresh.metrics.to_json(), reused.metrics.to_json());
}

TEST(RoundContextTest, ReuseIsByteIdenticalToFreshConstruction) {
  ScenarioConfig target = smp_vi(42);
  target.record_journal = true;
  target.record_events = true;
  target.collect_metrics = true;

  const RoundResult fresh = run_round(target);

  RoundContext ctx;
  // Dirty the context with unrelated rounds across testbeds and victims.
  (void)run_round(up_gedit(7), &ctx);
  (void)run_round(multicore_gedit(9), &ctx);
  const RoundResult reused = run_round(target, &ctx);

  // Each round's staging inputs differ from the last, so each restages.
  EXPECT_EQ(ctx.reuses(), 0u);
  expect_identical(fresh, reused);
}

TEST(RoundContextTest, NullContextMatchesPlainOverload) {
  ScenarioConfig cfg = up_gedit(11);
  cfg.record_journal = true;
  expect_identical(run_round(cfg), run_round(cfg, nullptr));
}

TEST(RoundContextTest, ManyReusedRoundsMatchManyFreshRounds) {
  // Sweep seeds through ONE context and compare every round against its
  // fresh twin — catches state bleeding between consecutive reuses.
  RoundContext ctx;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ScenarioConfig cfg = multicore_gedit(seed);
    cfg.record_journal = true;
    const RoundResult fresh = run_round(cfg);
    const RoundResult reused = run_round(cfg, &ctx);
    expect_identical(fresh, reused);
  }
  EXPECT_EQ(ctx.reuses(), 7u);
}

// Checkpoint fork vs replay: a round staged in a RECYCLED context,
// stepped partway, then forked via the RoundRun copy ctor must finish
// byte-identical to the same round replayed whole through the context.
// This is the clone side of the reuse contract the explorer's checkpoint
// mode depends on: leftover state in the context, or a miscloned pointer
// in the fork, would both surface as a journal/metrics diff.
void expect_clone_matches_reset_replay(ScenarioConfig cfg,
                                       ScenarioConfig dirty) {
  cfg.record_journal = true;
  cfg.record_events = true;
  cfg.collect_metrics = true;

  RoundContext ctx;
  (void)run_round(dirty, &ctx);  // dirty the context first
  const RoundResult replayed = run_round(cfg, &ctx);

  // Same context again (now dirtied by `cfg` itself): step partway,
  // fork, and drive only the FORK to completion.
  RoundRun parent(cfg, &ctx);
  const std::uint64_t boundary = replayed.events / 2;
  while (parent.events_executed() < boundary && parent.step()) {
  }
  RoundRun fork(parent);
  while (fork.step()) {
  }
  const RoundResult cloned = fork.finish();
  expect_identical(replayed, cloned);
}

TEST(RoundContextTest, CloneMatchesResetReplayOnSmpTestbed) {
  expect_clone_matches_reset_replay(smp_vi(42), up_gedit(7));
}

TEST(RoundContextTest, CloneMatchesResetReplayOnUniprocessorTestbed) {
  expect_clone_matches_reset_replay(up_gedit(13), multicore_gedit(3));
}

TEST(RoundContextTest, CloneMatchesResetReplayOnMulticoreTestbed) {
  expect_clone_matches_reset_replay(multicore_gedit(21), smp_vi(8));
}

TEST(RoundContextTest, FaultPlanRoundsAreIdenticalUnderReuse) {
  ScenarioConfig cfg = smp_vi(5);
  cfg.record_journal = true;
  sim::FaultSpec spec;
  spec.kind = sim::FaultKind::syscall_error;
  spec.role = sim::FaultRole::attacker;
  spec.rate = 0.2;
  cfg.faults.specs.push_back(spec);

  const RoundResult fresh = run_round(cfg);
  RoundContext ctx;
  (void)run_round(smp_vi(6), &ctx);  // dirty
  const RoundResult reused = run_round(cfg, &ctx);
  expect_identical(fresh, reused);
}

// A context stages its file tree once and starts every round from a
// copy-on-write copy of that template. The tests below pin the two ways
// that could leak state: a round that ends abnormally, and a template
// reused for a round it was not staged for.

StateHasher::Digest digest_of(const RoundRun& run) {
  StateHasher h;
  run.hash_state(h);
  return h.digest();
}

TEST(RoundContextTest, CleanRoundAfterKilledAndThrowingRoundsMatchesFresh) {
  // The same staging inputs throughout, so all three rounds start from
  // one template. The killed victim and the round thrown out of step()
  // by its step budget leave their copies dirty — never the template.
  RoundContext ctx;
  ScenarioConfig killed = smp_vi(3);
  std::string err;
  ASSERT_TRUE(sim::FaultPlan::parse("kill:0:nth=4:role=victim",
                                    &killed.faults, &err))
      << err;
  EXPECT_EQ(run_round(killed, &ctx).faults.kills, 1u);
  ScenarioConfig livelocked = smp_vi(4);
  livelocked.step_budget = 60;
  EXPECT_THROW(run_round(livelocked, &ctx), StepBudgetError);

  ScenarioConfig clean = smp_vi(5);
  clean.record_journal = true;
  clean.record_events = true;
  clean.collect_metrics = true;
  expect_identical(run_round(clean), run_round(clean, &ctx));
}

TEST(RoundContextTest, TemplateIsRestagedWhenAnyStagingInputChanges) {
  // Each round differs from the one before it in exactly one staging
  // input, so a template key that missed that input would start the
  // round from the previous round's tree. The staged state (digest
  // before the first event) and the whole result must match a fresh run.
  const auto tenants = [](const char* spec) {
    programs::BackgroundSpec b;
    std::string err;
    EXPECT_TRUE(programs::BackgroundSpec::parse(spec, &b, &err)) << err;
    return b;
  };
  const std::vector<std::pair<const char*, std::function<void(ScenarioConfig&)>>>
      changes = {
          {"costs",
           [](ScenarioConfig& c) {
             c.profile.costs = fs::SyscallCosts::pentium_d();
           }},
          {"file_bytes", [](ScenarioConfig& c) { c.file_bytes = 30 * 1024; }},
          {"background",
           [&](ScenarioConfig& c) {
             c.background = tenants("procs=8,inodes=96");
           }},
      };
  ScenarioConfig cfg = smp_vi(17);
  cfg.background = tenants("procs=8,inodes=64");
  cfg.record_journal = true;
  cfg.collect_metrics = true;
  RoundContext ctx;
  const auto expect_matches_fresh = [&ctx](const ScenarioConfig& c) {
    RoundRun fresh(c);
    RoundRun reused(c, &ctx);
    EXPECT_EQ(digest_of(fresh), digest_of(reused));
    expect_identical(fresh.finish(), reused.finish());
  };
  expect_matches_fresh(cfg);
  for (const auto& [input, change] : changes) {
    SCOPED_TRACE(input);
    change(cfg);
    expect_matches_fresh(cfg);
  }
}

// Plants one kind of damage, picked by `seed`, in a round's tree: the
// seven kinds of the fs differential test, and none for one seed in
// eight. Kind 0 damages a docroot file the web tenants open and close,
// so the round copies that inode as well.
void plant_damage(fs::Vfs& vfs, std::uint64_t seed, sim::Pid pid) {
  const std::string dir = strfmt("/srv/data/t0/s0/u%d/v%d",
                                 static_cast<int>(seed % 7),
                                 static_cast<int>(seed / 8 % 8));
  const fs::Ino file = vfs.lookup(dir + "/f0").value();
  switch (seed % 8) {
    case 0:
      vfs.inode_mut(vfs.lookup(strfmt("/srv/www/f%d",
                                      static_cast<int>(seed / 8 % 32)))
                        .value())
          .set_nlink(3);
      break;
    case 1:
      vfs.fd_alloc(pid, file, fs::OpenFlags::read_only());
      vfs.release_ref(file);
      break;
    case 2:
      vfs.inode_mut(vfs.create_symlink(dir + "/ln", "/srv/data", 0, 0))
          .set_symlink_target("");
      break;
    case 3:
      vfs.unlink_entry(vfs.lookup(dir).value(), "f0");
      vfs.inode_mut(file).set_nlink(1);
      break;
    case 4:
      vfs.link_entry(vfs.lookup("/tmp").value(), "hard", file);
      vfs.inode_mut(file).set_nlink(1);
      break;
    case 5:
      vfs.inode_mut(file).set_nlink(-1);
      break;
    case 6:
      vfs.alloc_inode(fs::FileType::regular, 0, 0, 0644).set_nlink(2);
      break;
    default:
      break;
  }
}

TEST(RoundContextTest, DeltaAuditOfReusedRoundsMatchesFullAuditOfFresh) {
  // A round copied from the context's clean template audits only what
  // it changed; a fresh round audits every inode. An extra program
  // damages each round's tree mid-round, while the tenants run, and
  // both audits must report the same lines, with and without kills.
  programs::BackgroundSpec tenants;
  sim::FaultPlan kills;
  std::string err;
  ASSERT_TRUE(programs::BackgroundSpec::parse("procs=32,inodes=2000",
                                              &tenants, &err))
      << err;
  ASSERT_TRUE(sim::FaultPlan::parse("kill:0.002,error:0.02:errno=eintr",
                                    &kills, &err))
      << err;
  for (const bool with_kills : {false, true}) {
    SCOPED_TRACE(with_kills ? "kills" : "no faults");
    RoundContext ctx;
    std::size_t violations = 0;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      SCOPED_TRACE(seed);
      ScenarioConfig cfg = smp_vi(seed);
      cfg.background = tenants;
      if (with_kills) cfg.faults = kills;
      cfg.extra_programs.push_back(
          {"vandal", 0, 0, [seed](fs::Vfs& vfs) {
             bool waited = false;
             return std::make_unique<testing::LambdaProgram>(
                 [&vfs, seed, waited](sim::ProgramContext& pc) mutable {
                   if (!waited) {
                     waited = true;
                     return sim::Action::compute(
                         Duration::micros(40 * static_cast<std::int64_t>(
                                                   seed % 5 + 1)));
                   }
                   plant_damage(vfs, seed, pc.self.pid());
                   return sim::Action::exit_proc();
                 });
           }});
      const RoundResult fresh = run_round(cfg);
      const RoundResult reused = run_round(cfg, &ctx);
      expect_identical(fresh, reused);
      violations += reused.audit_violations.size();
    }
    EXPECT_EQ(ctx.reuses(), 15u);
    EXPECT_GE(violations, 14u);  // every seed but the two undamaged ones
  }
}

}  // namespace
}  // namespace tocttou::core
