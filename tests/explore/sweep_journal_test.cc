// SweepJournal durability: create/resume round trips, header pinning,
// and torn/corrupt tail recovery.
#include "tocttou/explore/sweep_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tocttou::explore {
namespace {

using Loaded = std::vector<std::pair<std::string, LeafRecord>>;

std::string temp_path(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

SweepJournal::Meta test_meta() {
  SweepJournal::Meta m;
  m.fingerprint = 0xFEEDFACE;
  m.seed = 7;
  m.mode = 0;
  m.think_buckets = 16;
  m.preemption_bound = 2;
  m.max_schedules = 200000;
  m.step_budget = 100'000'000;
  return m;
}

LeafRecord sample_leaf(int salt) {
  LeafRecord o;
  o.prefix_ok = true;
  o.success = (salt % 2) == 0;
  o.window_us = 12.5 + salt;
  o.choices.push_back(Choice{ChoiceKind::pick, static_cast<std::uint16_t>(salt % 3),
                             3});
  SiteRecord s;
  s.choice = Choice{ChoiceKind::preempt, 1, 2};
  s.policy = 0;
  s.options = {10, 20, 30};
  o.sites.push_back(std::move(s));
  o.site_events = {40 + static_cast<std::uint64_t>(salt), 90};
  return o;
}

std::uint64_t file_size(const std::string& p) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(p));
}

std::string read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string from_hex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// The leaf of the two version-1 journals below.
LeafRecord v1_leaf() {
  LeafRecord o;
  o.prefix_ok = true;
  o.success = true;
  o.window_us = 12.5;
  o.choices.push_back(Choice{ChoiceKind::pick, 0, 3});
  SiteRecord s;
  s.choice = Choice{ChoiceKind::pick, 1, 3};
  s.policy = 0;
  s.options = {10, 20, 30};
  o.sites.push_back(std::move(s));
  o.site_events = {40, 90};
  return o;
}

// Version-1 journals written before the sleep-set layer was removed:
// magic, the test_meta() header with its sleep-set flag byte set to 1,
// and one batch holding v1_leaf() under key "k", whose pick site carried
// one commute flag byte per option — {0, 0, 0} in the first journal,
// {0, 1, 0} in the second.
constexpr std::string_view kV1ZeroFlags =
    "545357504a524e31430000002faad9b14801000000cefaedfe07000000000000000010"
    "00000002000000400d030001000000000000008000e1f5050000000000000000000000"
    "000000000000000000000000005b000000bcdcaf364201000000010000006b07000000"
    "0000000029400100000070000003000100000070010003000000030000000a00000014"
    "0000001e000000030000000000000200000028000000000000005a0000000000000000"
    "00000000000000";
constexpr std::string_view kV1OneFlag =
    "545357504a524e31430000002faad9b14801000000cefaedfe07000000000000000010"
    "00000002000000400d030001000000000000008000e1f5050000000000000000000000"
    "000000000000000000000000005b000000b43fcf0a4201000000010000006b07000000"
    "0000000029400100000070000003000100000070010003000000030000000a00000014"
    "0000001e000000030000000001000200000028000000000000005a0000000000000000"
    "00000000000000";

TEST(SweepJournalTest, CreateAppendResumeRoundTrips) {
  const std::string path = temp_path("journal_roundtrip.bin");
  std::remove(path.c_str());
  std::string err;
  {
    auto j = SweepJournal::create(path, test_meta(), &err);
    ASSERT_NE(j, nullptr) << err;
    const LeafRecord a = sample_leaf(0);
    const LeafRecord b = sample_leaf(1);
    j->append_batch({{"key-a", &a}, {"key-b", &b}});
    const LeafRecord c = sample_leaf(2);
    j->append_batch({{"key-c", &c}});
    j->append_stop(3);
    EXPECT_TRUE(j->ok());
    EXPECT_EQ(j->batches_written(), 2u);
  }
  Loaded out;
  auto j = SweepJournal::resume(path, test_meta(), &out, &err);
  ASSERT_NE(j, nullptr) << err;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, "key-a");
  EXPECT_EQ(out[0].second, sample_leaf(0));
  EXPECT_EQ(out[1].first, "key-b");
  EXPECT_EQ(out[1].second, sample_leaf(1));
  EXPECT_EQ(out[2].first, "key-c");
  EXPECT_EQ(out[2].second, sample_leaf(2));

  // The resumed handle keeps appending where the old one stopped.
  const LeafRecord d = sample_leaf(3);
  j->append_batch({{"key-d", &d}});
  EXPECT_TRUE(j->ok());
  Loaded again;
  auto j2 = SweepJournal::resume(path, test_meta(), &again, &err);
  ASSERT_NE(j2, nullptr) << err;
  EXPECT_EQ(again.size(), 4u);
}

TEST(SweepJournalTest, WritesTheVersion1Layout) {
  // The retired sleep-set bytes are still written — the header flag as 1,
  // one zero commute byte per pick option — so a journal written here is
  // byte-identical to what the version-1 writer produced.
  const std::string path = temp_path("journal_v1_layout.bin");
  std::remove(path.c_str());
  std::string err;
  {
    auto j = SweepJournal::create(path, test_meta(), &err);
    ASSERT_NE(j, nullptr) << err;
    const LeafRecord a = v1_leaf();
    j->append_batch({{"k", &a}});
  }
  EXPECT_EQ(read_file(path), from_hex(kV1ZeroFlags));
}

TEST(SweepJournalTest, ResumesAVersion1JournalDiscardingCommuteFlags) {
  const std::string path = temp_path("journal_v1_resume.bin");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << from_hex(kV1OneFlag);
  }
  std::string err;
  Loaded out;
  auto j = SweepJournal::resume(path, test_meta(), &out, &err);
  ASSERT_NE(j, nullptr) << err;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, "k");
  EXPECT_EQ(out[0].second, v1_leaf());
}

TEST(SweepJournalTest, QuarantinedLeafSurvivesTheRoundTrip) {
  const std::string path = temp_path("journal_quarantine.bin");
  std::remove(path.c_str());
  std::string err;
  LeafRecord q;
  q.prefix_ok = true;
  q.error = ErrorKind::step_budget_exhausted;
  q.choices.push_back(Choice{ChoiceKind::pick, 2, 4});
  {
    auto j = SweepJournal::create(path, test_meta(), &err);
    ASSERT_NE(j, nullptr) << err;
    j->append_batch({{"bad", &q}});
  }
  Loaded out;
  auto j = SweepJournal::resume(path, test_meta(), &out, &err);
  ASSERT_NE(j, nullptr) << err;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].second, q);
  EXPECT_EQ(out[0].second.error, ErrorKind::step_budget_exhausted);
  EXPECT_FALSE(out[0].second.window_us.has_value());
}

TEST(SweepJournalTest, MissingFileDegradesToCreate) {
  const std::string path = temp_path("journal_missing.bin");
  std::remove(path.c_str());
  std::string err;
  Loaded out;
  auto j = SweepJournal::resume(path, test_meta(), &out, &err);
  ASSERT_NE(j, nullptr) << err;
  EXPECT_TRUE(out.empty());
  // The fresh journal is real: it has a header and accepts appends.
  EXPECT_TRUE(std::filesystem::exists(path));
  const LeafRecord a = sample_leaf(0);
  j->append_batch({{"k", &a}});
  EXPECT_TRUE(j->ok());
}

TEST(SweepJournalTest, RefusesAJournalFromADifferentExploration) {
  const std::string path = temp_path("journal_foreign.bin");
  std::remove(path.c_str());
  std::string err;
  { ASSERT_NE(SweepJournal::create(path, test_meta(), &err), nullptr) << err; }

  SweepJournal::Meta other = test_meta();
  other.seed = 8;
  Loaded out;
  auto j = SweepJournal::resume(path, other, &out, &err);
  EXPECT_EQ(j, nullptr);
  EXPECT_NE(err.find("different exploration"), std::string::npos) << err;
}

TEST(SweepJournalTest, RefusesNonJournalFiles) {
  const std::string path = temp_path("journal_badmagic.bin");
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "definitely not a journal";
  }
  std::string err;
  Loaded out;
  EXPECT_EQ(SweepJournal::resume(path, test_meta(), &out, &err), nullptr);
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST(SweepJournalTest, TornTailIsTruncatedAndProgressKept) {
  const std::string path = temp_path("journal_torn.bin");
  std::remove(path.c_str());
  std::string err;
  std::uint64_t intact_size = 0;
  {
    auto j = SweepJournal::create(path, test_meta(), &err);
    ASSERT_NE(j, nullptr) << err;
    const LeafRecord a = sample_leaf(0);
    j->append_batch({{"k0", &a}});
    intact_size = file_size(path);
    // Simulate a crash mid-append: a second record whose frame says 100
    // bytes but whose payload was cut short by the kill.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("\x64\x00\x00\x00\x00\x00\x00\x00half", 12);
  }
  ASSERT_GT(file_size(path), intact_size);

  Loaded out;
  auto j = SweepJournal::resume(path, test_meta(), &out, &err);
  ASSERT_NE(j, nullptr) << err;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, "k0");
  EXPECT_EQ(file_size(path), intact_size);  // torn tail gone

  // Appending after recovery produces a journal that resumes cleanly.
  const LeafRecord b = sample_leaf(1);
  j->append_batch({{"k1", &b}});
  Loaded again;
  ASSERT_NE(SweepJournal::resume(path, test_meta(), &again, &err), nullptr)
      << err;
  EXPECT_EQ(again.size(), 2u);
}

TEST(SweepJournalTest, CrcMismatchDropsTheCorruptTail) {
  const std::string path = temp_path("journal_crc.bin");
  std::remove(path.c_str());
  std::string err;
  {
    auto j = SweepJournal::create(path, test_meta(), &err);
    ASSERT_NE(j, nullptr) << err;
    const LeafRecord a = sample_leaf(0);
    const LeafRecord b = sample_leaf(1);
    j->append_batch({{"k0", &a}});
    j->append_batch({{"k1", &b}});
  }
  // Flip one byte in the LAST record's payload (bit rot / partial
  // sector): its CRC no longer matches, so resume must drop it and keep
  // everything before it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    char c = 0;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x40));
  }
  Loaded out;
  auto j = SweepJournal::resume(path, test_meta(), &out, &err);
  ASSERT_NE(j, nullptr) << err;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, "k0");
}

TEST(SweepJournalTest, CorruptHeaderIsFatal) {
  const std::string path = temp_path("journal_hdrcorrupt.bin");
  std::remove(path.c_str());
  std::string err;
  { ASSERT_NE(SweepJournal::create(path, test_meta(), &err), nullptr) << err; }
  {
    // Flip a byte inside the header payload: with no intact header the
    // journal is unusable — resume must refuse, not silently restart.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20, std::ios::beg);
    f.put('\x7F');
  }
  Loaded out;
  EXPECT_EQ(SweepJournal::resume(path, test_meta(), &out, &err), nullptr);
  EXPECT_NE(err.find("header"), std::string::npos) << err;
}

TEST(SweepJournalTest, CreateFailureReportsAnError) {
  std::string err;
  auto j = SweepJournal::create("/nonexistent-dir/journal.bin", test_meta(),
                                &err);
  EXPECT_EQ(j, nullptr);
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace tocttou::explore
