// Window analysis: t1/t2/t3, L and D extraction per the paper's
// estimator conventions (Sections 3.4, 5, 6.1).
#include "tocttou/core/analysis.h"

#include <gtest/gtest.h>

namespace tocttou::core {
namespace {

using namespace tocttou::literals;

class AnalysisTest : public ::testing::Test {
 protected:
  void add(trace::Pid pid, const char* name, std::int64_t enter_us,
           std::int64_t exit_us, const char* path, const char* path2 = "",
           std::optional<std::uint32_t> uid = std::nullopt) {
    trace::SyscallRecord& r = journal_.append(
        pid, name, SimTime::origin() + Duration::micros(enter_us),
        SimTime::origin() + Duration::micros(exit_us), Errno::ok, path,
        path2);
    if (uid) {
      r.st_uid = *uid;
      r.st_gid = (*uid == 0) ? 0 : *uid;
    }
  }

  trace::SyscallJournal journal_;
  static constexpr trace::Pid kVictim = 1;
  static constexpr trace::Pid kAttacker = 2;
};

TEST_F(AnalysisTest, ViWindowAndLoopIterationD) {
  // Victim: startup open, then save open at [100,120], chown at 220.
  add(kVictim, "open", 0, 10, "/h/f");
  add(kVictim, "open", 100, 120, "/h/f");
  add(kVictim, "chown", 220, 230, "/h/f");
  // Attacker: 40us detection loop; detects at the stat entering 140.
  add(kAttacker, "stat", 20, 32, "/h/f", "", 500);
  add(kAttacker, "stat", 60, 72, "/h/f", "", 500);
  add(kAttacker, "stat", 100, 132, "/h/f", "", 500);
  add(kAttacker, "stat", 140, 152, "/h/f", "", 0);  // detection
  add(kAttacker, "unlink", 160, 180, "/h/f");

  const auto m = analyze_window(journal_, kVictim, kAttacker,
                                WindowSpec::vi("/h/f"),
                                DConvention::loop_iteration);
  ASSERT_TRUE(m.window_found);
  // The TIGHTEST open->chown pair: the save open, not the startup one.
  EXPECT_EQ(m.window_open, SimTime::origin() + 120_us);
  EXPECT_EQ(m.t3, SimTime::origin() + 220_us);
  EXPECT_EQ(m.victim_window(), 100_us);
  ASSERT_TRUE(m.detected);
  EXPECT_EQ(m.t1, SimTime::origin() + 140_us);
  ASSERT_TRUE(m.d.has_value());
  EXPECT_EQ(*m.d, 40_us);  // mean period of the detection loop
  ASSERT_TRUE(m.laxity.has_value());
  // L = (t3 - D) - t1 = (220 - 40) - 140 = 40.
  EXPECT_EQ(*m.laxity, 40_us);
  EXPECT_NEAR(*m.predicted_rate(), 1.0, 1e-12);
}

TEST_F(AnalysisTest, GeditWindowAndStatToUnlinkD) {
  // Victim: backup rename, then temp->real rename exits at 100; chmod
  // enters at 147 (the 43us gap + resolution).
  add(kVictim, "rename", 40, 60, "/h/f", "/h/f~");
  add(kVictim, "rename", 80, 100, "/h/.tmp", "/h/f");
  add(kVictim, "chmod", 147, 155, "/h/f");
  add(kVictim, "chown", 156, 164, "/h/f");
  // Attacker: blocked stat entered at 85 (inside the rename), detects.
  add(kAttacker, "stat", 85, 104, "/h/f", "", 0);
  add(kAttacker, "unlink", 130, 150, "/h/f");

  const auto m = analyze_window(journal_, kVictim, kAttacker,
                                WindowSpec::gedit("/h/f"),
                                DConvention::stat_to_unlink);
  ASSERT_TRUE(m.window_found);
  EXPECT_EQ(m.window_open, SimTime::origin() + 100_us);
  EXPECT_EQ(m.t3, SimTime::origin() + 147_us);
  ASSERT_TRUE(m.detected);
  // t1 clamped to the window-open instant (the stat entered before it).
  EXPECT_EQ(m.t1, SimTime::origin() + 100_us);
  ASSERT_TRUE(m.d.has_value());
  EXPECT_EQ(*m.d, 30_us);  // unlink enter 130 - effective t1 100
  // L = (147 - 30) - 100 = 17.
  EXPECT_EQ(*m.laxity, 17_us);
  EXPECT_NEAR(*m.predicted_rate(), 17.0 / 30.0, 1e-12);
}

TEST_F(AnalysisTest, NoWindowWithoutUseCall) {
  add(kVictim, "open", 0, 10, "/h/f");
  const auto m = analyze_window(journal_, kVictim, kAttacker,
                                WindowSpec::vi("/h/f"),
                                DConvention::loop_iteration);
  EXPECT_FALSE(m.window_found);
  EXPECT_FALSE(m.detected);
}

TEST_F(AnalysisTest, UndetectedWindow) {
  add(kVictim, "open", 100, 120, "/h/f");
  add(kVictim, "chown", 220, 230, "/h/f");
  add(kAttacker, "stat", 20, 32, "/h/f", "", 500);  // never saw root
  const auto m = analyze_window(journal_, kVictim, kAttacker,
                                WindowSpec::vi("/h/f"),
                                DConvention::loop_iteration);
  ASSERT_TRUE(m.window_found);
  EXPECT_FALSE(m.detected);
  EXPECT_FALSE(m.laxity.has_value());
  EXPECT_FALSE(m.predicted_rate().has_value());
}

TEST_F(AnalysisTest, SingleStatGivesNoLoopIterationD) {
  add(kVictim, "open", 100, 120, "/h/f");
  add(kVictim, "chown", 220, 230, "/h/f");
  add(kAttacker, "stat", 140, 152, "/h/f", "", 0);
  const auto m = analyze_window(journal_, kVictim, kAttacker,
                                WindowSpec::vi("/h/f"),
                                DConvention::loop_iteration);
  ASSERT_TRUE(m.detected);
  EXPECT_FALSE(m.d.has_value());  // one sample: no period estimate
  EXPECT_FALSE(m.laxity.has_value());
}

TEST_F(AnalysisTest, NegativeLaxityWhenAttackerTooSlow) {
  // Figure 8's situation: the window (3us) is smaller than the
  // attacker's stat->unlink interval -> L < 0.
  add(kVictim, "rename", 80, 100, "/h/.tmp", "/h/f");
  add(kVictim, "chmod", 103, 108, "/h/f");
  add(kVictim, "chown", 109, 112, "/h/f");
  add(kAttacker, "stat", 95, 104, "/h/f", "", 0);
  add(kAttacker, "unlink", 121, 140, "/h/f");
  const auto m = analyze_window(journal_, kVictim, kAttacker,
                                WindowSpec::gedit("/h/f"),
                                DConvention::stat_to_unlink);
  ASSERT_TRUE(m.laxity.has_value());
  // D = 121-100 = 21; L = (103-21)-100 = -18.
  EXPECT_EQ(*m.d, 21_us);
  EXPECT_EQ(*m.laxity, -(18_us));
  EXPECT_DOUBLE_EQ(*m.predicted_rate(), 0.0);
}

TEST_F(AnalysisTest, StatsOnOtherPathsIgnored) {
  add(kVictim, "open", 100, 120, "/h/f");
  add(kVictim, "chown", 220, 230, "/h/f");
  add(kAttacker, "stat", 10, 14, "/etc/passwd", "", 0);  // root, but wrong path
  add(kAttacker, "stat", 140, 152, "/h/f", "", 0);
  add(kAttacker, "stat", 180, 192, "/h/f", "", 0);
  const auto m = analyze_window(journal_, kVictim, kAttacker,
                                WindowSpec::vi("/h/f"),
                                DConvention::loop_iteration);
  ASSERT_TRUE(m.detected);
  EXPECT_EQ(m.t1, SimTime::origin() + 140_us);
}

}  // namespace
}  // namespace tocttou::core
