// fork_equals_replay property: with checkpointing ON the explorer forks
// each leaf off a mid-round clone of its parent at the divergence site;
// with it OFF every leaf re-simulates its full schedule prefix from
// scratch. The two must agree not just on the reduced ExploreResult but
// leaf-by-leaf — every executed leaf's journal, per-round metrics, and
// fault stats byte-identical across checkpoint on/off and job counts.
//
// The leaf_observer keys leaves by replay token. In both modes each
// schedule executes once: the sweep is one pass over the divergence
// waves, which enumerates and reduces each schedule once. So each key
// must fire exactly once. The comparison runs over keyed maps, never
// firing sequences, because worker completion order varies with jobs.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
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
  c.record_journal = true;
  c.collect_metrics = true;
  return c;
}

core::ScenarioConfig multicore_gedit() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_multicore_pentium_d();
  c.victim = core::VictimKind::gedit;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 7;
  c.record_journal = true;
  c.collect_metrics = true;
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

/// Everything a leaf exposes that the checkpoint fork must reproduce.
struct LeafSurface {
  std::string journal;
  std::string metrics;
  std::string faults;

  bool operator==(const LeafSurface&) const = default;
};

using LeafMap = std::map<std::string, LeafSurface>;

LeafMap collect(const core::ScenarioConfig& cfg, ExploreConfig ecfg,
                bool checkpoint, int jobs, ExploreResult* out) {
  LeafMap leaves;
  std::mutex mu;  // the observer runs concurrently when jobs > 1
  ecfg.checkpoint = checkpoint;
  ecfg.jobs = jobs;
  ecfg.leaf_observer = [&](const std::string& key,
                           const core::RoundResult& r) {
    LeafSurface s;
    s.journal = r.trace.journal.to_csv();
    s.metrics = r.metrics.to_json();
    s.faults = faults_key(r.faults);
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(leaves.emplace(key, s).second)
        << "leaf executed twice (checkpoint=" << checkpoint << "): " << key;
  };
  *out = explore(cfg, ecfg);
  return leaves;
}

void expect_same_leaves(const LeafMap& want, const LeafMap& got,
                        const char* label) {
  EXPECT_EQ(want.size(), got.size()) << label;
  for (const auto& [key, surface] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      ADD_FAILURE() << label << ": leaf missing: " << key;
      continue;
    }
    EXPECT_EQ(surface.journal, it->second.journal) << label << " " << key;
    EXPECT_EQ(surface.metrics, it->second.metrics) << label << " " << key;
    EXPECT_EQ(surface.faults, it->second.faults) << label << " " << key;
  }
  for (const auto& [key, surface] : got) {
    if (want.find(key) == want.end()) {
      ADD_FAILURE() << label << ": unexpected extra leaf: " << key;
    }
  }
}

void expect_same_result(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.policy_schedules, b.policy_schedules);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.bound_reached, b.bound_reached);
  EXPECT_EQ(a.pruned_by_sleep_set, b.pruned_by_sleep_set);
  EXPECT_EQ(a.bound_cutoffs, b.bound_cutoffs);
  EXPECT_EQ(a.exact_success, b.exact_success);  // bit-identical
  EXPECT_EQ(a.total_mass, b.total_mass);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness && b.witness) {
    EXPECT_EQ(a.witness->serialize(), b.witness->serialize());
  }
  EXPECT_EQ(a.witness_divergences, b.witness_divergences);
  EXPECT_EQ(a.schedules_to_first_hit, b.schedules_to_first_hit);
  EXPECT_EQ(a.window_us.count(), b.window_us.count());
  EXPECT_EQ(a.window_us.mean(), b.window_us.mean());
  EXPECT_EQ(a.window_us.stdev(), b.window_us.stdev());
  EXPECT_EQ(a.divergence_errors, b.divergence_errors);
}

TEST(ForkEqualsReplayTest, UpViLeavesByteIdenticalAcrossModesAndJobs) {
  const core::ScenarioConfig cfg = up_vi();
  ExploreConfig ecfg;
  ecfg.mode = ExploreMode::exhaustive;
  ecfg.think_buckets = 4;
  ecfg.preemption_bound = 2;
  ecfg.max_schedules = 4000;

  ExploreResult replay_res, fork1_res, fork4_res;
  const LeafMap replay = collect(cfg, ecfg, false, 1, &replay_res);
  const LeafMap fork1 = collect(cfg, ecfg, true, 1, &fork1_res);
  const LeafMap fork4 = collect(cfg, ecfg, true, 4, &fork4_res);

  ASSERT_FALSE(replay.empty());
  expect_same_leaves(replay, fork1, "fork jobs=1 vs replay");
  expect_same_leaves(replay, fork4, "fork jobs=4 vs replay");
  expect_same_result(replay_res, fork1_res);
  expect_same_result(replay_res, fork4_res);
  // The fork path actually exercised checkpoints (not a degenerate run).
  EXPECT_GT(fork1_res.metrics.counter("explore.forks"), 0u);
  EXPECT_GT(fork1_res.metrics.counter("explore.checkpoints"), 0u);
}

TEST(ForkEqualsReplayTest, MulticoreGeditLeavesByteIdentical) {
  const core::ScenarioConfig cfg = multicore_gedit();
  ExploreConfig ecfg;
  ecfg.mode = ExploreMode::exhaustive;
  ecfg.think_buckets = 3;
  ecfg.preemption_bound = 1;
  ecfg.max_schedules = 1500;

  ExploreResult replay_res, fork_res;
  const LeafMap replay = collect(cfg, ecfg, false, 1, &replay_res);
  const LeafMap fork = collect(cfg, ecfg, true, 4, &fork_res);

  ASSERT_FALSE(replay.empty());
  expect_same_leaves(replay, fork, "fork jobs=4 vs replay");
  expect_same_result(replay_res, fork_res);
}

}  // namespace
}  // namespace tocttou::explore
