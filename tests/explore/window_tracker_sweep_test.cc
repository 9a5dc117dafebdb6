// Explore leaves take their victim window from the round's live tracker
// and keep no journal unless an observer reads one. This test attaches
// the observer, so every executed leaf — forked off a mid-round
// checkpoint or replayed from the start — also records its journal, and
// checks on each leaf that the tracker equals analyze_window's victim
// side over that journal. A fork that failed to rebind the kernel's
// tracker pointer would feed the parent's tracker and fail here. The
// sweeps are the up/vi one the golden report pins and the smp/gedit one
// whose window opens on rename's second path.
#include <gtest/gtest.h>

#include <mutex>

#include "tocttou/explore/explorer.h"

namespace tocttou::explore {
namespace {

struct Tally {
  int leaves = 0;
  int windows = 0;
};

Tally check_every_leaf(const core::ScenarioConfig& cfg, int buckets,
                       int bound) {
  ExploreConfig ecfg;
  ecfg.mode = ExploreMode::exhaustive;
  ecfg.think_buckets = buckets;
  ecfg.preemption_bound = bound;
  ecfg.jobs = 1;
  Tally t;
  std::mutex mu;
  ecfg.leaf_observer = [&](const std::string& key,
                           const core::RoundResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    ++t.leaves;
    ASSERT_FALSE(r.trace.journal.empty()) << key;
    ASSERT_TRUE(r.window.has_value()) << key;
    const trace::WindowTracker& w = r.window_tracker;
    ASSERT_EQ(w.found(), r.window->window_found) << key;
    if (!w.found()) return;
    ++t.windows;
    EXPECT_EQ(w.open(), r.window->window_open) << key;
    EXPECT_EQ(w.use(), r.window->t3) << key;
  };
  const ExploreResult res = explore(cfg, ecfg);
  EXPECT_TRUE(res.complete);
  EXPECT_GT(res.metrics.counter("explore.forks"), 0u);
  return t;
}

TEST(WindowTrackerSweepTest, UpViLeavesTrackTheJournalsWindow) {
  core::ScenarioConfig cfg;
  cfg.profile = programs::testbed_uniprocessor_xeon();
  cfg.victim = core::VictimKind::vi;
  cfg.file_bytes = 4096;
  cfg.seed = 7;
  const Tally t = check_every_leaf(cfg, /*buckets=*/16, /*bound=*/3);
  EXPECT_GT(t.leaves, 100);
  EXPECT_GT(t.windows, 0);
}

TEST(WindowTrackerSweepTest, SmpGeditLeavesTrackTheRenameTarget) {
  core::ScenarioConfig cfg;
  cfg.profile = programs::testbed_smp_dual_xeon();
  cfg.victim = core::VictimKind::gedit;
  cfg.file_bytes = 4096;
  cfg.seed = 7;
  const Tally t = check_every_leaf(cfg, /*buckets=*/16, /*bound=*/1);
  EXPECT_GT(t.leaves, 10);
  EXPECT_GT(t.windows, 0);
}

}  // namespace
}  // namespace tocttou::explore
