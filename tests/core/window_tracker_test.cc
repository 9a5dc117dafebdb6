// The live victim-window tracker against the journal: on every round
// that records a journal, RoundResult::window_tracker — fed by the
// kernel as each syscall completes — must equal analyze_window's victim
// side over the journal (window_found, window_open, t3). The scenarios
// are the golden ones (up/vi, smp/vi, multicore gedit, the smp gedit
// pipelined attacker, the faulted smp/vi plan whose entry errors, spikes
// and kills shift or cut victim calls) plus a denser victim-fault plan,
// the sendmail and suspending victims and a round without an attacker,
// at seeds 1-64.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tocttou/core/analysis.h"
#include "tocttou/core/harness.h"

namespace tocttou::core {
namespace {

struct Scenario {
  const char* name;
  ScenarioConfig cfg;
};

ScenarioConfig make(programs::TestbedProfile profile, VictimKind victim,
                    AttackerKind attacker = AttackerKind::naive) {
  ScenarioConfig c;
  c.profile = std::move(profile);
  c.victim = victim;
  c.attacker = attacker;
  c.record_journal = true;
  return c;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back({"up_vi", make(programs::testbed_uniprocessor_xeon(),
                               VictimKind::vi)});
  out.push_back(
      {"smp_vi", make(programs::testbed_smp_dual_xeon(), VictimKind::vi)});
  out.push_back({"multicore_gedit",
                 make(programs::testbed_multicore_pentium_d(),
                      VictimKind::gedit)});
  Scenario pipelined{"smp_gedit_pipelined",
                     make(programs::testbed_smp_dual_xeon(),
                          VictimKind::gedit, AttackerKind::pipelined)};
  pipelined.cfg.file_bytes = 4096;
  out.push_back(pipelined);
  // The golden_smp_vi_faults_* plan.
  Scenario faulted{"smp_vi_faults",
                   make(programs::testbed_smp_dual_xeon(), VictimKind::vi)};
  std::string err;
  EXPECT_TRUE(sim::FaultPlan::parse(
      "error:0.05:errno=eintr:role=victim,"
      "error:0:errno=enospc:op=write:nth=2,"
      "error:0.02:errno=eio:path=/home/alice,spike:0.02:us=80,"
      "wakeup-delay:0.02:us=40,kill:0:nth=30:role=attacker",
      &faulted.cfg.faults, &err))
      << err;
  out.push_back(faulted);
  // Denser victim faults: about a third of the victim's calls are held
  // by a completion spike and a tenth fail at entry, so most rounds shift
  // or cut a check or use call.
  Scenario dense{"smp_vi_dense_victim_faults",
                 make(programs::testbed_smp_dual_xeon(), VictimKind::vi)};
  EXPECT_TRUE(sim::FaultPlan::parse(
      "spike:0.3:us=80:role=victim,error:0.1:errno=eintr:role=victim",
      &dense.cfg.faults, &err))
      << err;
  out.push_back(dense);
  out.push_back({"smp_sendmail", make(programs::testbed_smp_dual_xeon(),
                                      VictimKind::sendmail)});
  out.push_back({"smp_suspending", make(programs::testbed_smp_dual_xeon(),
                                        VictimKind::suspending)});
  out.push_back({"smp_vi_no_attacker",
                 make(programs::testbed_smp_dual_xeon(), VictimKind::vi,
                      AttackerKind::none)});
  return out;
}

TEST(WindowTrackerRoundTest, EqualsTheJournalsVictimSideOnEveryRound) {
  for (Scenario& s : scenarios()) {
    SCOPED_TRACE(s.name);
    RoundContext ctx;
    int found = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      s.cfg.seed = seed;
      const RoundResult r = run_round(s.cfg, &ctx);
      const WindowMeasurement m = analyze_window(
          r.trace.journal, r.victim_pid, r.attacker_pid,
          window_spec_for(s.cfg), d_convention_for(s.cfg.victim));
      const trace::WindowTracker& t = r.window_tracker;
      ASSERT_EQ(t.found(), m.window_found) << "seed " << seed;
      if (!m.window_found) continue;
      ++found;
      ASSERT_EQ(t.open(), m.window_open) << "seed " << seed;
      ASSERT_EQ(t.use(), m.t3) << "seed " << seed;
      if (s.cfg.attacker != AttackerKind::none) {
        ASSERT_TRUE(r.window.has_value());
        ASSERT_EQ(r.window->window_open, m.window_open) << "seed " << seed;
        ASSERT_EQ(r.window->t3, m.t3) << "seed " << seed;
      }
    }
    EXPECT_GT(found, 0);
  }
}

TEST(WindowTrackerRoundTest, TracksWithoutAJournal) {
  // The explorer's leaf shape: no journal, and the same window.
  ScenarioConfig cfg =
      make(programs::testbed_uniprocessor_xeon(), VictimKind::vi);
  cfg.seed = 5;
  const RoundResult with = run_round(cfg);
  cfg.record_journal = false;
  const RoundResult without = run_round(cfg);
  EXPECT_TRUE(without.trace.journal.empty());
  EXPECT_FALSE(without.window.has_value());
  ASSERT_TRUE(with.window_tracker.found());
  EXPECT_TRUE(without.window_tracker.found());
  EXPECT_EQ(without.window_tracker.open(), with.window_tracker.open());
  EXPECT_EQ(without.window_tracker.use(), with.window_tracker.use());
}

}  // namespace
}  // namespace tocttou::core
