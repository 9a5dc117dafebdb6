// Differential equivalence harness for canonical state hashing
// (DESIGN.md §10). Hashing is a throughput feature: a schedule that
// merges into an already-seen state must contribute EXACTLY the outcome
// it would have produced by executing, so every determinism-contract
// field of ExploreResult — exact probability, witness token, first-hit
// index, quarantine list — is required to be bit-identical with hashing
// on and off, crossed over preemption bounds, worker counts, checkpoint
// modes, and kill-and-resume.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "tocttou/explore/explorer.h"

namespace tocttou::explore {
namespace {

core::ScenarioConfig up_vi() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_uniprocessor_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 7;
  return c;
}

core::ScenarioConfig mc_gedit() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_multicore_pentium_d();
  c.victim = core::VictimKind::gedit;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 7;
  return c;
}

core::ScenarioConfig smp_vi() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 7;
  return c;
}

ExploreConfig ecfg_with(int bound, int jobs, bool checkpoint, bool hashing) {
  ExploreConfig e;
  e.think_buckets = 2;
  e.preemption_bound = bound;
  e.jobs = jobs;
  e.checkpoint = checkpoint;
  e.state_hash = hashing;
  return e;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
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

struct Scenario {
  const char* name;
  core::ScenarioConfig (*make)();
};

constexpr Scenario kScenarios[] = {{"up_vi", up_vi},
                                   {"mc_gedit", mc_gedit}};

TEST(StateHashEquivalenceTest, OnOffBitIdenticalAcrossBoundsJobsCheckpoint) {
  for (const Scenario& sc : kScenarios) {
    for (int bound : {3, 4, 5}) {
      for (int jobs : {1, 4}) {
        for (bool ckpt : {true, false}) {
          SCOPED_TRACE(std::string(sc.name) + " bound=" +
                       std::to_string(bound) + " jobs=" +
                       std::to_string(jobs) + " ckpt=" +
                       std::to_string(ckpt));
          const ExploreResult off =
              explore(sc.make(), ecfg_with(bound, jobs, ckpt, false));
          const ExploreResult on =
              explore(sc.make(), ecfg_with(bound, jobs, ckpt, true));
          ASSERT_GT(off.schedules, 0);
          expect_same_result(off, on);
        }
      }
    }
  }
}

TEST(StateHashEquivalenceTest, WitnessAndFirstHitSurviveMerging) {
  // smp/vi is the scenario whose bounded space actually contains
  // successes, so the witness token and first-hit index are live fields
  // here, not vacuously equal empties.
  const ExploreResult off = explore(smp_vi(), ecfg_with(4, 1, true, false));
  const ExploreResult on = explore(smp_vi(), ecfg_with(4, 1, true, true));
  ASSERT_GT(off.successes, 0);
  ASSERT_TRUE(off.witness.has_value());
  ASSERT_GE(off.schedules_to_first_hit, 0);
  expect_same_result(off, on);
}

TEST(StateHashEquivalenceTest, ReductionCountersReportRealWork) {
  // The counters are the feature's observable surface: with
  // checkpointing on, up/vi at bound 5 provably merges more than half
  // its schedules (BENCH_explore_reduction.json pins the same ratio),
  // and every counter is jobs-invariant.
  const ExploreResult j1 = explore(up_vi(), ecfg_with(5, 1, true, true));
  const ExploreResult j4 = explore(up_vi(), ecfg_with(5, 4, true, true));
  const auto& c1 = j1.metrics.counters();
  ASSERT_TRUE(c1.contains("explore.hash_merges"));
  ASSERT_TRUE(c1.contains("explore.leaves_executed"));
  const std::uint64_t merges = c1.at("explore.hash_merges");
  const std::uint64_t executed = c1.at("explore.leaves_executed");
  EXPECT_GT(merges, 0u);
  EXPECT_EQ(merges + executed,
            static_cast<std::uint64_t>(j1.schedules));
  // >= 2x fewer executions than enumerated schedules (the acceptance
  // ratio the bench records).
  EXPECT_LE(2 * executed, static_cast<std::uint64_t>(j1.schedules));
  for (const char* key : {"explore.hash_merges", "explore.leaves_executed"}) {
    EXPECT_EQ(c1.at(key), j4.metrics.counters().at(key)) << key;
  }

  // Off-mode metrics carry none of the hashing counters, so the metrics
  // surface is byte-identical to the pre-feature explorer.
  const ExploreResult off = explore(up_vi(), ecfg_with(5, 1, true, false));
  for (const char* key : {"explore.hash_merges", "explore.leaves_executed"}) {
    EXPECT_FALSE(off.metrics.counters().contains(key)) << key;
  }

  // Replay mode executes every leaf from scratch — no checkpoints, no
  // donor states, honestly zero merges (not a silently-disabled count)
  // — and, like checkpoint mode, runs each schedule once: deeper
  // iterations reduce the shallower schedules from the outcome store.
  const ExploreResult replay = explore(up_vi(), ecfg_with(5, 1, false, true));
  EXPECT_EQ(replay.metrics.counters().at("explore.hash_merges"), 0u);
  EXPECT_EQ(replay.metrics.counters().at("explore.leaves_executed"),
            static_cast<std::uint64_t>(replay.schedules));
}

TEST(StateHashEquivalenceTest, KillAndResumeWithFeaturesOn) {
  // An interrupted hashing-on sweep resumed (hashing on or off) must
  // reduce to the same result as an uninterrupted hashing-OFF run: the
  // journal never records whether a leaf's outcome was executed or
  // merged, so resume composes with state hashing for free.
  const ExploreResult baseline =
      explore(up_vi(), ecfg_with(4, 1, true, false));
  for (int resume_jobs : {1, 4}) {
    for (bool resume_hashing : {true, false}) {
      SCOPED_TRACE("resume_jobs=" + std::to_string(resume_jobs) +
                   " resume_hashing=" + std::to_string(resume_hashing));
      const std::string path =
          temp_path("hash_resume_" + std::to_string(resume_jobs) +
                    std::to_string(resume_hashing) + ".bin");
      std::remove(path.c_str());

      ExploreConfig stop_cfg = ecfg_with(4, 4, true, true);
      stop_cfg.journal_path = path;
      stop_cfg.should_stop = stop_after(2);
      const ExploreResult partial = explore(up_vi(), stop_cfg);
      ASSERT_TRUE(partial.interrupted);
      EXPECT_TRUE(partial.journal_error.empty()) << partial.journal_error;

      ExploreConfig resume_cfg =
          ecfg_with(4, resume_jobs, true, resume_hashing);
      resume_cfg.journal_path = path;
      resume_cfg.resume = true;
      const ExploreResult resumed = explore(up_vi(), resume_cfg);
      EXPECT_FALSE(resumed.interrupted);
      EXPECT_GT(resumed.journal_leaves_loaded, 0);
      expect_same_result(baseline, resumed);
    }
  }
}

}  // namespace
}  // namespace tocttou::explore
