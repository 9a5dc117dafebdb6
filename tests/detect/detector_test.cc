// analyze_round() on hand-built sync logs and journals: the race
// predicate, its two suppression rules, symlink-alias matching, window
// reset on re-check, and the log/journal pairing invariants.
#include "tocttou/detect/detector.h"

#include <gtest/gtest.h>

#include "tocttou/common/error.h"

namespace tocttou::detect {
namespace {

using namespace tocttou::literals;

// Builds one round's worth of paired SyncLog + SyscallJournal. Every
// syscall goes through call(): it brackets the record with
// sc_enter/sc_exit in the log, the exit naming the record's index, and
// appends the record to the journal in completion order, which is
// exactly the kernel's contract.
class RoundBuilder {
 public:
  void start(trace::Pid pid, std::uint32_t uid) { sync.proc_start(pid, uid); }

  trace::SyscallRecord& call(trace::Pid pid, std::string name,
                             std::string path, std::string path2 = {}) {
    sync.sc_enter(pid);
    sync.sc_exit(pid, journal.records().size());
    journal.append(
        pid, name, SimTime::origin() + Duration::micros(static_cast<int>(t_)),
        SimTime::origin() + Duration::micros(static_cast<int>(t_ + 1)),
        Errno::ok, path, path2);
    t_ += 2;
    return last();
  }

  trace::SyscallRecord& last() {
    return const_cast<trace::SyscallRecord&>(journal.records().back());
  }

  SyncLog sync;
  trace::SyscallJournal journal;

 private:
  std::uint64_t t_ = 10;
};

TEST(DetectorTest, ConcurrentMutationIsFlagged) {
  // No sync edge between victim and attacker: the unlink is concurrent
  // with the <stat, chown> window.
  RoundBuilder b;
  b.start(1, 0);
  b.start(2, 500);
  b.call(1, "stat", "/h/f");
  b.call(2, "unlink", "/h/f");
  b.call(1, "chown", "/h/f");

  const DetectReport rep = analyze_round(b.sync, b.journal);
  EXPECT_EQ(rep.rounds, 1u);
  EXPECT_EQ(rep.windows, 1u);
  EXPECT_EQ(rep.mutations, 1u);
  ASSERT_EQ(rep.races, 1u);
  EXPECT_EQ(rep.rounds_with_race, 1u);
  EXPECT_EQ(rep.pair_windows.at("stat,chown"), 1u);
  EXPECT_EQ(rep.pair_races.at("stat,chown"), 1u);
  ASSERT_EQ(rep.findings.size(), 1u);
  const RaceFinding& f = rep.findings[0];
  EXPECT_EQ(f.victim, 1u);
  EXPECT_EQ(f.mutator, 2u);
  EXPECT_EQ(f.mutator_uid, 500u);
  EXPECT_EQ(f.pair_key(), "stat,chown");
  EXPECT_FALSE(f.ordered_after_check);
  EXPECT_FALSE(f.ordered_before_use);
  EXPECT_NE(f.justification().find("fully concurrent"), std::string::npos);
}

TEST(DetectorTest, RootMutationsAreNotAttackerWritable) {
  RoundBuilder b;
  b.start(1, 0);
  b.start(2, 0);  // "attacker" runs as root: not a threat model mutation
  b.call(1, "stat", "/h/f");
  b.call(2, "unlink", "/h/f");
  b.call(1, "chown", "/h/f");
  const DetectReport rep = analyze_round(b.sync, b.journal);
  EXPECT_EQ(rep.windows, 1u);
  EXPECT_EQ(rep.mutations, 0u);
  EXPECT_EQ(rep.races, 0u);
}

TEST(DetectorTest, FailedMutatorCallsDoNotMutate) {
  RoundBuilder b;
  b.start(1, 0);
  b.start(2, 500);
  b.call(1, "stat", "/h/f");
  b.call(2, "unlink", "/h/f").result = Errno::eacces;
  b.call(1, "chown", "/h/f");
  const DetectReport rep = analyze_round(b.sync, b.journal);
  EXPECT_EQ(rep.mutations, 0u);
  EXPECT_EQ(rep.races, 0u);
}

TEST(DetectorTest, SemOrderedMutationBeforeCheckIsSuppressed) {
  // Attacker unlinks, then hands the inode semaphore to the victim
  // BEFORE the check: the kernel proves mutation -> check, no race.
  RoundBuilder b;
  b.start(1, 0);
  b.start(2, 500);
  b.call(2, "unlink", "/h/f");
  b.sync.sem_acquire(2, 7);
  b.sync.sem_release(2, 7);
  b.sync.sem_acquire(1, 7);  // joins the attacker's history
  b.call(1, "stat", "/h/f");
  b.call(1, "chown", "/h/f");

  const DetectReport rep = analyze_round(b.sync, b.journal);
  EXPECT_EQ(rep.windows, 1u);
  EXPECT_EQ(rep.mutations, 1u);
  EXPECT_EQ(rep.races, 0u);
  EXPECT_EQ(rep.rounds_with_race, 0u);
  EXPECT_EQ(rep.ordered_mutations.at("mutation-before-check"), 1u);
}

TEST(DetectorTest, UseBeforeMutationIsSuppressed) {
  // The victim finishes the whole window and only then hands the
  // semaphore to the attacker: use -> mutation, no race.
  RoundBuilder b;
  b.start(1, 0);
  b.start(2, 500);
  b.call(1, "stat", "/h/f");
  b.call(1, "chown", "/h/f");
  b.sync.sem_acquire(1, 7);
  b.sync.sem_release(1, 7);
  b.sync.sem_acquire(2, 7);
  b.call(2, "unlink", "/h/f");

  const DetectReport rep = analyze_round(b.sync, b.journal);
  EXPECT_EQ(rep.windows, 1u);
  EXPECT_EQ(rep.races, 0u);
  EXPECT_EQ(rep.ordered_mutations.at("use-before-mutation"), 1u);
}

TEST(DetectorTest, MutationSerializedInsideWindowStillRaces) {
  // check -> (sem) -> mutation -> (sem) -> use: the kernel ordered the
  // mutation INSIDE the window. That is a landed attack, not a benign
  // ordering — it must be flagged, with both justification bits set.
  RoundBuilder b;
  b.start(1, 0);
  b.start(2, 500);
  b.call(1, "stat", "/h/f");
  b.sync.sem_acquire(1, 7);
  b.sync.sem_release(1, 7);
  b.sync.sem_acquire(2, 7);
  b.call(2, "unlink", "/h/f");
  b.sync.sem_release(2, 7);
  b.sync.sem_acquire(1, 7);
  b.call(1, "chown", "/h/f");

  const DetectReport rep = analyze_round(b.sync, b.journal);
  ASSERT_EQ(rep.races, 1u);
  const RaceFinding& f = rep.findings[0];
  EXPECT_TRUE(f.ordered_after_check);
  EXPECT_TRUE(f.ordered_before_use);
  EXPECT_NE(f.justification().find("serialized inside the window"),
            std::string::npos);
}

TEST(DetectorTest, SymlinkAliasedMutationMatchesByInode) {
  // The attacker mutates a DIFFERENT name that resolves to the inode
  // the check observed: name equality fails, applied_ino matches.
  RoundBuilder b;
  b.start(1, 0);
  b.start(2, 500);
  b.call(1, "stat", "/h/f").st_ino = 42;
  b.call(2, "chown", "/tmp/alias").applied_ino = 42;
  b.call(1, "chown", "/h/f");

  const DetectReport rep = analyze_round(b.sync, b.journal);
  ASSERT_EQ(rep.races, 1u);
  EXPECT_EQ(rep.findings[0].mutator_call, "chown");
  EXPECT_EQ(rep.findings[0].path, "/h/f");

  // Different inode: no match at all.
  RoundBuilder c;
  c.start(1, 0);
  c.start(2, 500);
  c.call(1, "stat", "/h/f").st_ino = 42;
  c.call(2, "chown", "/tmp/other").applied_ino = 43;
  c.call(1, "chown", "/h/f");
  EXPECT_EQ(analyze_round(c.sync, c.journal).races, 0u);
}

TEST(DetectorTest, RecheckResetsTheWindow) {
  // unlink lands between check #1 and a RE-check that is ordered after
  // it: the use pairs with the latest check only, so the mutation is
  // provably before-the-check and suppressed. Keeping the stale first
  // check alive would fabricate a race here.
  RoundBuilder b;
  b.start(1, 0);
  b.start(2, 500);
  b.call(1, "stat", "/h/f");
  b.call(2, "unlink", "/h/f");
  b.sync.sem_acquire(2, 7);
  b.sync.sem_release(2, 7);
  b.sync.sem_acquire(1, 7);
  b.call(1, "stat", "/h/f");  // re-check, ordered after the unlink
  b.call(1, "chown", "/h/f");

  const DetectReport rep = analyze_round(b.sync, b.journal);
  EXPECT_EQ(rep.windows, 1u);  // only <re-check, chown>
  EXPECT_EQ(rep.races, 0u);
  EXPECT_EQ(rep.ordered_mutations.at("mutation-before-check"), 1u);
}

TEST(DetectorTest, OwnRenameRetiresTheCheckedName) {
  // The victim renames the checked name away: a later use of the old
  // name has no live invariant to pair with.
  RoundBuilder b;
  b.start(1, 0);
  b.call(1, "stat", "/h/f");
  b.call(1, "rename", "/h/f", "/h/g");  // forms <stat, rename>, retires /h/f
  b.call(1, "chown", "/h/f");           // no window: /h/f was retired

  const DetectReport rep = analyze_round(b.sync, b.journal);
  EXPECT_EQ(rep.windows, 1u);
  EXPECT_EQ(rep.pair_windows.at("stat,rename"), 1u);
  EXPECT_EQ(rep.pair_windows.count("stat,chown"), 0u);
}

TEST(DetectorTest, InFlightCallAtRoundEndIsDropped) {
  // A round can end with a syscall still in service: sc_enter with no
  // sc_exit and no journal record. The dangling bracket names no record
  // and is dropped.
  RoundBuilder b;
  b.start(1, 0);
  b.call(1, "stat", "/h/f");
  b.sync.sc_enter(1);  // in flight at round end, never journaled
  const DetectReport rep = analyze_round(b.sync, b.journal);
  EXPECT_EQ(rep.rounds, 1u);
  EXPECT_EQ(rep.windows, 0u);
}

TEST(DetectorTest, OutOfStepLogAndJournalThrows) {
  // A journal record with no completed bracket is a wiring bug, not a
  // recoverable input.
  RoundBuilder b;
  b.start(1, 0);
  b.journal.append(1, "stat", SimTime{}, SimTime{}, Errno::ok, "/h/f");
  EXPECT_THROW(analyze_round(b.sync, b.journal), SimError);

  // And a completed bracket with no journal record is the same bug in
  // the other direction.
  RoundBuilder c;
  c.start(1, 0);
  c.sync.sc_enter(1);
  c.sync.sc_exit(1, 0);
  EXPECT_THROW(analyze_round(c.sync, c.journal), SimError);

  // Each record has exactly one call: a second bracket naming the same
  // record is the same bug again.
  RoundBuilder d;
  d.start(1, 0);
  d.call(1, "stat", "/h/f");
  d.sync.sc_enter(1);
  d.sync.sc_exit(1, 0);
  EXPECT_THROW(analyze_round(d.sync, d.journal), SimError);
}

TEST(DetectorTest, EmptyRound) {
  const DetectReport rep = analyze_round(SyncLog{}, trace::SyscallJournal{});
  EXPECT_EQ(rep.rounds, 1u);
  EXPECT_EQ(rep.sync_events, 0u);
  EXPECT_EQ(rep.windows, 0u);
  EXPECT_EQ(rep.races, 0u);
}

}  // namespace
}  // namespace tocttou::detect
