// Conservation and sanity properties of full attack rounds: CPU time is
// bounded by wall-clock x CPUs, traces are well-formed (no overlapping
// execution on one CPU, journals consistent with events), and the round
// harness never leaks semaphores or fds.
#include <gtest/gtest.h>

#include <map>

#include "tocttou/core/harness.h"

namespace tocttou::core {
namespace {

struct RoundCase {
  const char* name;
  programs::TestbedProfile (*profile)();
  VictimKind victim;
  AttackerKind attacker;
  std::uint64_t bytes;
};

// gtest lists each case with its printed parameter, and ctest takes that
// as part of the test's name. The default printer dumps the struct's raw
// bytes, pointers included, so the name would change with ASLR.
void PrintTo(const RoundCase& c, std::ostream* os) { *os << c.name; }

class ConservationTest : public ::testing::TestWithParam<RoundCase> {};

RoundResult traced_round(const RoundCase& c, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.profile = c.profile();
  cfg.victim = c.victim;
  cfg.attacker = c.attacker;
  cfg.file_bytes = c.bytes;
  cfg.seed = seed;
  cfg.record_journal = true;
  cfg.record_events = true;
  return run_round(cfg);
}

TEST_P(ConservationTest, NoOverlappingExecutionPerCpu) {
  const auto r = traced_round(GetParam(), 11);
  ASSERT_TRUE(r.victim_completed);
  // Collect CPU-occupying segments grouped by cpu; they must not overlap.
  std::map<int, std::vector<std::pair<SimTime, SimTime>>> by_cpu;
  for (const auto& ev : r.trace.log.events()) {
    switch (ev.category) {
      case trace::Category::compute:
      case trace::Category::syscall:
      case trace::Category::trap:
        if (ev.cpu >= 0 && ev.end > ev.begin) {
          by_cpu[ev.cpu].emplace_back(ev.begin, ev.end);
        }
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(by_cpu.empty());
  for (auto& [cpu, segs] : by_cpu) {
    std::sort(segs.begin(), segs.end());
    for (std::size_t i = 1; i < segs.size(); ++i) {
      EXPECT_LE(segs[i - 1].second, segs[i].first)
          << "overlap on cpu " << cpu << " at " << segs[i].first.us()
          << "us";
    }
  }
}

TEST_P(ConservationTest, CpuTimeBoundedByWallTimesCpus) {
  const auto r = traced_round(GetParam(), 12);
  Duration total = Duration::zero();
  for (const auto& ev : r.trace.log.events()) {
    if (ev.category == trace::Category::compute ||
        ev.category == trace::Category::syscall ||
        ev.category == trace::Category::trap) {
      total += ev.length();
    }
  }
  const Duration wall = r.end_time - SimTime::origin();
  EXPECT_LE(total.ns(),
            wall.ns() * GetParam().profile().machine.n_cpus);
}

TEST_P(ConservationTest, JournalSpansNestInsideRound) {
  const auto r = traced_round(GetParam(), 13);
  for (const auto& rec : r.trace.journal.records()) {
    EXPECT_LE(rec.enter, rec.exit);
    EXPECT_GE(rec.enter, SimTime::origin());
    EXPECT_LE(rec.exit, r.end_time);
  }
}

TEST_P(ConservationTest, VictimSyscallsAppearInBothViews) {
  // Every journaled victim syscall has matching syscall-category trace
  // events (same label) overlapping its [enter, exit] span.
  const auto r = traced_round(GetParam(), 14);
  int checked = 0;
  for (const auto& rec : r.trace.journal.records()) {
    if (rec.pid != r.victim_pid) continue;
    if (++checked > 10) break;  // spot-check
    bool found = false;
    for (const auto& ev : r.trace.log.events()) {
      if (ev.pid == rec.pid && ev.category == trace::Category::syscall &&
          ev.label == rec.name && ev.begin >= rec.enter &&
          ev.end <= rec.exit) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << rec.name << " @" << rec.enter.us() << "us";
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Rounds, ConservationTest,
    ::testing::Values(
        RoundCase{"vi_up", &programs::testbed_uniprocessor_xeon,
                  VictimKind::vi, AttackerKind::naive, 200 * 1024},
        RoundCase{"vi_smp", &programs::testbed_smp_dual_xeon,
                  VictimKind::vi, AttackerKind::naive, 50 * 1024},
        RoundCase{"gedit_smp", &programs::testbed_smp_dual_xeon,
                  VictimKind::gedit, AttackerKind::naive, 16 * 1024},
        RoundCase{"gedit_mc_v2", &programs::testbed_multicore_pentium_d,
                  VictimKind::gedit, AttackerKind::prefaulted, 16 * 1024},
        RoundCase{"vi_smp_pipelined", &programs::testbed_smp_dual_xeon,
                  VictimKind::vi, AttackerKind::pipelined, 50 * 1024}),
    [](const ::testing::TestParamInfo<RoundCase>& info) {
      return std::string(info.param.name);
    });

TEST(RoundLimitTest, TimeLimitReportsAnomaly) {
  // An absurdly small round limit must be reported, not hang or throw.
  ScenarioConfig cfg;
  cfg.profile = programs::testbed_uniprocessor_xeon();
  cfg.victim = VictimKind::vi;
  cfg.file_bytes = 1024 * 1024;
  cfg.seed = 3;
  cfg.round_limit = Duration::micros(50);
  const auto r = run_round(cfg);
  EXPECT_FALSE(r.victim_completed);
  EXPECT_FALSE(r.success);
  const auto s = run_campaign(cfg, 3);
  EXPECT_EQ(s.anomalies, 3);
}

}  // namespace
}  // namespace tocttou::core
