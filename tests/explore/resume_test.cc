// Resume determinism: a sweep interrupted via should_stop and resumed
// from its journal reduces to a result byte-identical to an
// uninterrupted run — at any jobs value, with checkpointing on or off,
// and across mismatched interrupt/resume configurations (the journal
// header deliberately pins neither).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "tocttou/explore/explorer.h"

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

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

ExploreConfig base_ecfg(int jobs, bool checkpoint) {
  ExploreConfig e;
  e.think_buckets = 8;
  e.preemption_bound = 1;
  e.jobs = jobs;
  e.checkpoint = checkpoint;
  return e;
}

/// Asserts every field of the determinism contract (DESIGN.md §8) —
/// everything except throughput/journal bookkeeping.
void expect_same_result(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.policy_schedules, b.policy_schedules);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.bound_reached, b.bound_reached);
  EXPECT_EQ(a.pruned_by_sleep_set, b.pruned_by_sleep_set);
  EXPECT_EQ(a.bound_cutoffs, b.bound_cutoffs);
  EXPECT_EQ(a.exact_success, b.exact_success);
  EXPECT_EQ(a.total_mass, b.total_mass);
  EXPECT_EQ(a.successes, b.successes);
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness) {
    EXPECT_EQ(a.witness->serialize(), b.witness->serialize());
  }
  EXPECT_EQ(a.witness_divergences, b.witness_divergences);
  EXPECT_EQ(a.schedules_to_first_hit, b.schedules_to_first_hit);
  EXPECT_EQ(a.window_us.count(), b.window_us.count());
  EXPECT_EQ(a.window_us.sum(), b.window_us.sum());
  EXPECT_EQ(a.divergence_errors, b.divergence_errors);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.quarantine, b.quarantine);
}

/// should_stop returning true from the (threshold+1)-th poll onward.
std::function<bool()> stop_after(int threshold) {
  auto calls = std::make_shared<std::atomic<int>>(0);
  return [calls, threshold] { return ++*calls > threshold; };
}

TEST(ResumeTest, InterruptedSweepResumesByteIdentically) {
  const ExploreResult baseline = explore(smp_gedit(), base_ecfg(1, true));
  ASSERT_GT(baseline.schedules, 0);

  for (int jobs : {1, 4}) {
    for (bool ckpt : {true, false}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " checkpoint=" + std::to_string(ckpt));
      const std::string path =
          temp_path("resume_j" + std::to_string(jobs) +
                    (ckpt ? "_ckpt.bin" : "_replay.bin"));
      std::remove(path.c_str());

      // Let the first wave complete (poll #1), then stop at the next
      // poll: the journal holds real progress when the stop lands.
      ExploreConfig stop_cfg = base_ecfg(jobs, ckpt);
      stop_cfg.journal_path = path;
      stop_cfg.should_stop = stop_after(2);
      const ExploreResult partial = explore(smp_gedit(), stop_cfg);
      ASSERT_TRUE(partial.interrupted);
      EXPECT_FALSE(partial.complete);
      EXPECT_TRUE(partial.journal_error.empty()) << partial.journal_error;

      ExploreConfig resume_cfg = base_ecfg(jobs, ckpt);
      resume_cfg.journal_path = path;
      resume_cfg.resume = true;
      const ExploreResult resumed = explore(smp_gedit(), resume_cfg);
      EXPECT_FALSE(resumed.interrupted);
      // The first wave was journaled before the stop poll fired.
      EXPECT_GE(resumed.journal_leaves_loaded, 8);
      expect_same_result(baseline, resumed);
    }
  }
}

TEST(ResumeTest, JournalCrossesJobsAndCheckpointConfigs) {
  // The header pins the exploration identity but NOT jobs or the
  // checkpoint flag: interrupt a 4-worker replay-mode sweep, resume it
  // single-threaded with checkpoint forking on. The resumed run must
  // also survive journaled parents that carry no site_events (replay
  // mode records none) by degrading those groups to prefix replay.
  const ExploreResult baseline = explore(smp_gedit(), base_ecfg(1, true));
  const std::string path = temp_path("resume_cross.bin");
  std::remove(path.c_str());

  ExploreConfig stop_cfg = base_ecfg(4, false);
  stop_cfg.journal_path = path;
  stop_cfg.should_stop = stop_after(2);
  const ExploreResult partial = explore(smp_gedit(), stop_cfg);
  ASSERT_TRUE(partial.interrupted);

  ExploreConfig resume_cfg = base_ecfg(1, true);
  resume_cfg.journal_path = path;
  resume_cfg.resume = true;
  const ExploreResult resumed = explore(smp_gedit(), resume_cfg);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_GE(resumed.journal_leaves_loaded, 8);
  expect_same_result(baseline, resumed);
}

TEST(ResumeTest, StopBeforeAnyProgressStillResumes) {
  // SIGTERM can land before the first batch completes; the journal then
  // holds only its header and resume is an empty resume.
  const ExploreResult baseline = explore(smp_gedit(), base_ecfg(1, true));
  const std::string path = temp_path("resume_empty.bin");
  std::remove(path.c_str());

  ExploreConfig stop_cfg = base_ecfg(1, true);
  stop_cfg.journal_path = path;
  stop_cfg.should_stop = stop_after(0);  // stop at the very first poll
  const ExploreResult partial = explore(smp_gedit(), stop_cfg);
  ASSERT_TRUE(partial.interrupted);
  EXPECT_EQ(partial.schedules, 0);

  ExploreConfig resume_cfg = base_ecfg(1, true);
  resume_cfg.journal_path = path;
  resume_cfg.resume = true;
  const ExploreResult resumed = explore(smp_gedit(), resume_cfg);
  EXPECT_EQ(resumed.journal_leaves_loaded, 0);
  expect_same_result(baseline, resumed);
}

TEST(ResumeTest, ResumingACompletedSweepExecutesNoLeaves) {
  const std::string path = temp_path("resume_complete.bin");
  std::remove(path.c_str());
  ExploreConfig with_journal = base_ecfg(1, true);
  with_journal.journal_path = path;
  const ExploreResult first = explore(smp_gedit(), with_journal);
  ASSERT_TRUE(first.complete);
  EXPECT_GT(first.metrics.counter("explore.leaves"), 0u);

  ExploreConfig resume_cfg = base_ecfg(1, true);
  resume_cfg.journal_path = path;
  resume_cfg.resume = true;
  std::atomic<int> executed{0};
  resume_cfg.leaf_observer = [&executed](const std::string&,
                                         const core::RoundResult&) {
    ++executed;
  };
  const ExploreResult resumed = explore(smp_gedit(), resume_cfg);
  expect_same_result(first, resumed);
  EXPECT_GT(resumed.journal_leaves_loaded, 0);
  // Every leaf reduced from the journal; nothing re-executed. (The
  // explore.leaves counter tracks ENUMERATED schedules and so stays at
  // its uninterrupted value — the observer sees actual executions.)
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(resumed.metrics.counter("explore.leaves"),
            first.metrics.counter("explore.leaves"));
}

TEST(ResumeTest, PctSweepJournalsAndResumes) {
  core::ScenarioConfig cfg = smp_gedit();
  ExploreConfig ecfg;
  ecfg.mode = ExploreMode::pct;
  ecfg.pct_schedules = 24;
  ecfg.pct_depth = 3;
  ecfg.pct_seed = 11;
  const ExploreResult baseline = explore(cfg, ecfg);

  const std::string path = temp_path("resume_pct.bin");
  std::remove(path.c_str());
  ExploreConfig with_journal = ecfg;
  with_journal.journal_path = path;
  const ExploreResult first = explore(cfg, with_journal);
  expect_same_result(baseline, first);

  ExploreConfig resume_cfg = ecfg;
  resume_cfg.journal_path = path;
  resume_cfg.resume = true;
  const ExploreResult resumed = explore(cfg, resume_cfg);
  expect_same_result(baseline, resumed);
  EXPECT_EQ(resumed.journal_leaves_loaded, 24);
  // No round executed on the resumed run, so no worker ever recycled a
  // context (a fresh 24-schedule run would report 23 reuses).
  EXPECT_EQ(resumed.metrics.counter("explore.ctx_reuses"), 0u);
  EXPECT_EQ(resumed.pct_procs, baseline.pct_procs);
  EXPECT_EQ(resumed.pct_max_steps, baseline.pct_max_steps);
  EXPECT_EQ(resumed.pct_bound, baseline.pct_bound);
}

TEST(ResumeTest, ResumeRefusesAForeignJournal) {
  const std::string path = temp_path("resume_foreign.bin");
  std::remove(path.c_str());
  ExploreConfig with_journal = base_ecfg(1, true);
  with_journal.journal_path = path;
  ASSERT_TRUE(explore(smp_gedit(), with_journal).journal_error.empty());

  core::ScenarioConfig other = smp_gedit();
  other.seed = 9;  // different exploration identity
  ExploreConfig resume_cfg = base_ecfg(1, true);
  resume_cfg.journal_path = path;
  resume_cfg.resume = true;
  const ExploreResult res = explore(other, resume_cfg);
  EXPECT_FALSE(res.journal_error.empty());
  // The mismatch aborts before any round runs — mixing two sweeps'
  // reductions would be silent corruption.
  EXPECT_EQ(res.schedules, 0);
  EXPECT_EQ(res.rounds_executed, 0);
}

}  // namespace
}  // namespace tocttou::explore
