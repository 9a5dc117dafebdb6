// TOCTTOU pair taxonomy and journal-based pair detection.
#include "tocttou/core/pairs.h"

#include <gtest/gtest.h>

namespace tocttou::core {
namespace {

using namespace tocttou::literals;

TEST(ClassifyTest, CheckUseAndBoth) {
  EXPECT_EQ(classify_call("stat"), CallClass::check);
  EXPECT_EQ(classify_call("lstat"), CallClass::check);
  EXPECT_EQ(classify_call("access"), CallClass::check);
  EXPECT_EQ(classify_call("readlink"), CallClass::check);
  EXPECT_EQ(classify_call("chown"), CallClass::use);
  EXPECT_EQ(classify_call("chmod"), CallClass::use);
  EXPECT_EQ(classify_call("unlink"), CallClass::use);
  EXPECT_EQ(classify_call("open"), CallClass::both);
  EXPECT_EQ(classify_call("rename"), CallClass::both);
  EXPECT_EQ(classify_call("symlink"), CallClass::both);
  EXPECT_EQ(classify_call("read"), CallClass::neither);
  EXPECT_EQ(classify_call("close"), CallClass::neither);
}

TEST(KnownShapesTest, ContainsThePaperPairs) {
  bool vi = false, gedit = false, sendmail = false;
  for (const auto& s : known_pair_shapes()) {
    vi |= (s.check == "open" && s.use == "chown");
    gedit |= (s.check == "rename" && s.use == "chown");
    sendmail |= (s.check == "lstat" && s.use == "open");
  }
  EXPECT_TRUE(vi);
  EXPECT_TRUE(gedit);
  EXPECT_TRUE(sendmail);
}

class PairDetectTest : public ::testing::Test {
 protected:
  void add(trace::Pid pid, const char* name, std::int64_t enter_us,
           std::int64_t exit_us, const char* path, const char* path2 = "",
           Errno result = Errno::ok) {
    journal_.append(pid, name, SimTime::origin() + Duration::micros(enter_us),
                    SimTime::origin() + Duration::micros(exit_us), result,
                    path, path2);
  }

  trace::SyscallJournal journal_;
};

TEST_F(PairDetectTest, FindsViPair) {
  add(1, "rename", 0, 10, "/h/f", "/h/f~");
  add(1, "open", 20, 40, "/h/f");
  add(1, "write", 50, 60, "/h/f");
  add(1, "close", 70, 75, "/h/f");
  add(1, "chown", 80, 90, "/h/f");
  const auto pairs = find_pairs(journal_, 1);
  const auto vi = find_widest_pair(journal_, 1, "open", "chown");
  ASSERT_TRUE(vi.has_value());
  EXPECT_EQ(vi->path, "/h/f");
  EXPECT_EQ(vi->window(), 40_us);  // open exit 40 -> chown enter 80
  EXPECT_FALSE(pairs.empty());
}

TEST_F(PairDetectTest, FindsGeditPairsViaRenameDestination) {
  add(1, "open", 0, 5, "/h/.tmp");
  add(1, "close", 6, 8, "/h/.tmp");
  add(1, "rename", 10, 20, "/h/f", "/h/f~");      // backup
  add(1, "rename", 25, 35, "/h/.tmp", "/h/f");    // temp -> real
  add(1, "chmod", 80, 85, "/h/f");
  add(1, "chown", 86, 90, "/h/f");
  const auto chmod_pair = find_widest_pair(journal_, 1, "rename", "chmod");
  const auto chown_pair = find_widest_pair(journal_, 1, "rename", "chown");
  ASSERT_TRUE(chmod_pair.has_value());
  ASSERT_TRUE(chown_pair.has_value());
  EXPECT_EQ(chmod_pair->window(), 45_us);  // rename exit 35 -> chmod 80
  EXPECT_EQ(chown_pair->window(), 51_us);
}

TEST_F(PairDetectTest, FindsSendmailPair) {
  add(1, "lstat", 0, 4, "/var/mail/a");
  add(1, "open", 60, 70, "/var/mail/a");
  const auto p = find_widest_pair(journal_, 1, "lstat", "open");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->window(), 56_us);
}

TEST_F(PairDetectTest, FailedCheckEstablishesNothing) {
  add(1, "stat", 0, 4, "/h/f", "", Errno::enoent);
  add(1, "chown", 10, 14, "/h/f");
  EXPECT_FALSE(find_widest_pair(journal_, 1, "stat", "chown").has_value());
}

TEST_F(PairDetectTest, UnlinkDestroysTheInvariant) {
  add(1, "stat", 0, 4, "/h/f");
  add(1, "unlink", 10, 14, "/h/f");
  add(1, "chown", 20, 24, "/h/f");
  // <stat, unlink> is a pair; <stat, chown> after the unlink is not.
  EXPECT_TRUE(find_widest_pair(journal_, 1, "stat", "unlink").has_value());
  EXPECT_FALSE(find_widest_pair(journal_, 1, "stat", "chown").has_value());
}

TEST_F(PairDetectTest, RenameMovesTheInvariantToTheNewName) {
  add(1, "stat", 0, 4, "/h/old");
  add(1, "rename", 10, 20, "/h/old", "/h/new");
  add(1, "chown", 30, 34, "/h/old");  // old name: invariant gone
  add(1, "chmod", 40, 44, "/h/new");  // new name: rename established it
  EXPECT_FALSE(find_widest_pair(journal_, 1, "stat", "chown").has_value());
  const auto p = find_widest_pair(journal_, 1, "rename", "chmod");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->path, "/h/new");
}

TEST_F(PairDetectTest, IgnoresOtherPids) {
  add(1, "stat", 0, 4, "/h/f");
  add(2, "chown", 10, 14, "/h/f");
  EXPECT_TRUE(find_pairs(journal_, 1).empty());
  EXPECT_TRUE(find_pairs(journal_, 2).empty());
}

TEST_F(PairDetectTest, DifferentPathsDoNotPair) {
  add(1, "stat", 0, 4, "/h/a");
  add(1, "chown", 10, 14, "/h/b");
  EXPECT_TRUE(find_pairs(journal_, 1).empty());
}

TEST_F(PairDetectTest, RepeatedChecksPairWithTheLatest) {
  add(1, "stat", 0, 4, "/h/f");
  add(1, "stat", 50, 54, "/h/f");
  add(1, "chown", 60, 64, "/h/f");
  const auto p = find_widest_pair(journal_, 1, "stat", "chown");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->window(), 6_us);  // latest stat (exit 54) -> chown (60)
}

TEST_F(PairDetectTest, InterferenceDetectsTheAttackSignature) {
  // Victim: vi-style <open, chown>; attacker: unlink+symlink inside the
  // window — the exact attack shape, flagged like an online detector.
  add(1, "open", 100, 120, "/h/f");
  add(1, "chown", 300, 310, "/h/f");
  add(2, "stat", 130, 142, "/h/f");
  add(2, "unlink", 150, 170, "/h/f");
  add(2, "symlink", 172, 184, "/h/f", "/etc/passwd");
  const auto hits = find_interference(journal_, 1);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].intruder, 2u);
  EXPECT_EQ(hits[0].intruder_call, "unlink");
  EXPECT_EQ(hits[1].intruder_call, "symlink");
  EXPECT_EQ(hits[0].window.check_call, "open");
  EXPECT_EQ(hits[0].window.use_call, "chown");
  EXPECT_EQ(hits[0].at, SimTime::origin() + 150_us);
}

TEST_F(PairDetectTest, InterferenceIgnoresMutationsOutsideTheWindow) {
  add(1, "open", 100, 120, "/h/f");
  add(1, "chown", 300, 310, "/h/f");
  add(2, "unlink", 10, 20, "/h/f");    // before the check
  add(2, "unlink", 400, 410, "/h/f");  // after the use
  EXPECT_TRUE(find_interference(journal_, 1).empty());
}

TEST_F(PairDetectTest, InterferenceIgnoresReadsAndOtherPaths) {
  add(1, "open", 100, 120, "/h/f");
  add(1, "chown", 300, 310, "/h/f");
  add(2, "stat", 150, 160, "/h/f");      // read-only: not a mutation
  add(2, "unlink", 150, 170, "/h/g");    // different path
  EXPECT_TRUE(find_interference(journal_, 1).empty());
}

TEST_F(PairDetectTest, LinkSecondaryPathActsAsUseTarget) {
  // Regression: link("/h/f", "/h/hard") relies on the invariant of BOTH
  // names — the observed oldpath and the created newpath. The newpath
  // side used to be invisible to pairing.
  add(1, "stat", 0, 4, "/h/hard");
  add(1, "link", 10, 20, "/h/f", "/h/hard");
  const auto p = find_widest_pair(journal_, 1, "stat", "link");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->path, "/h/hard");
}

TEST_F(PairDetectTest, LinkEstablishesBothNames) {
  add(1, "link", 0, 10, "/h/f", "/h/hard");
  add(1, "chown", 20, 24, "/h/f");     // oldpath was observed
  add(1, "chmod", 30, 34, "/h/hard");  // newpath was created
  EXPECT_TRUE(find_widest_pair(journal_, 1, "link", "chown").has_value());
  EXPECT_TRUE(find_widest_pair(journal_, 1, "link", "chmod").has_value());
}

TEST_F(PairDetectTest, InterferenceCatchesLinkOntoTheWatchedName) {
  // Regression: an attacker's link(<anything>, "/h/f") inside the
  // window remaps the watched name exactly like rename — its newpath
  // must be matched as the mutated name.
  add(1, "open", 100, 120, "/h/f");
  add(1, "chown", 300, 310, "/h/f");
  add(2, "link", 150, 170, "/h/evil", "/h/f");
  const auto hits = find_interference(journal_, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].intruder_call, "link");
  EXPECT_EQ(hits[0].window.path, "/h/f");
}

TEST_F(PairDetectTest, InterferenceIgnoresLinkOldpathAndSymlinkTarget) {
  add(1, "open", 100, 120, "/h/f");
  add(1, "chown", 300, 310, "/h/f");
  // link's OLDPATH merely gains a second name elsewhere; symlink's
  // path2 is the target string — neither mutates /h/f's binding.
  add(2, "link", 150, 170, "/h/f", "/h/elsewhere");
  add(2, "symlink", 180, 190, "/h/evil2", "/h/f");
  EXPECT_TRUE(find_interference(journal_, 1).empty());
}

TEST_F(PairDetectTest, InterferenceCatchesRenameOntoTheWatchedName) {
  add(1, "open", 100, 120, "/h/f");
  add(1, "chown", 300, 310, "/h/f");
  add(2, "rename", 150, 170, "/h/evil", "/h/f");  // remaps the name
  const auto hits = find_interference(journal_, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].intruder_call, "rename");
}

}  // namespace
}  // namespace tocttou::core
