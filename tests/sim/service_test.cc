#include "tocttou/sim/service.h"

#include <gtest/gtest.h>

#include "tocttou/trace/journal.h"

namespace tocttou::sim {
namespace {

using namespace tocttou::literals;

TEST(StepTest, WorkCarriesDurationOnly) {
  const Step s = Step::work(7_us);
  EXPECT_EQ(s.kind, Step::Kind::work);
  EXPECT_EQ(s.dur, 7_us);
  EXPECT_EQ(s.sem, nullptr);
  EXPECT_EQ(s.result, Errno::ok);
}

TEST(StepTest, AcquireAndReleaseCarryTheSemaphore) {
  Semaphore sem(1);
  const Step a = Step::acquire(&sem);
  EXPECT_EQ(a.kind, Step::Kind::acquire);
  EXPECT_EQ(a.sem, &sem);
  EXPECT_EQ(a.dur, Duration::zero());

  const Step r = Step::release(&sem);
  EXPECT_EQ(r.kind, Step::Kind::release);
  EXPECT_EQ(r.sem, &sem);
  EXPECT_EQ(r.result, Errno::ok);
}

TEST(StepTest, BlockIoCarriesSleepDuration) {
  const Step s = Step::block_io(2_ms);
  EXPECT_EQ(s.kind, Step::Kind::block_io);
  EXPECT_EQ(s.dur, 2_ms);
  EXPECT_EQ(s.sem, nullptr);
}

TEST(StepTest, DoneCarriesErrno) {
  const Step ok = Step::done();
  EXPECT_EQ(ok.kind, Step::Kind::done);
  EXPECT_EQ(ok.result, Errno::ok);

  const Step err = Step::done(Errno::enoent);
  EXPECT_EQ(err.kind, Step::Kind::done);
  EXPECT_EQ(err.result, Errno::enoent);
}

TEST(StepTest, DefaultConstructedStepIsDoneOk) {
  const Step s;
  EXPECT_EQ(s.kind, Step::Kind::done);
  EXPECT_EQ(s.dur, Duration::zero());
  EXPECT_EQ(s.sem, nullptr);
  EXPECT_EQ(s.result, Errno::ok);
}

/// Minimal op overriding only the pure-virtual surface, to pin down the
/// base-class defaults programs rely on.
class NopOp : public ServiceOp {
 public:
  std::string_view name() const override { return "nop"; }
  Step advance(ServiceContext&) override { return Step::done(); }
};

TEST(ServiceOpTest, DefaultLibcPageOptsOut) {
  NopOp op;
  EXPECT_EQ(op.libc_page(), ServiceOp::kNoLibcPage);
  EXPECT_EQ(ServiceOp::kNoLibcPage, -1);
}

TEST(ServiceOpTest, DefaultFillRecordLeavesRecordUntouched) {
  NopOp op;
  trace::SyscallJournal journal;
  trace::SyscallRecord& rec = journal.append(
      3, "nop", SimTime::origin(), SimTime::origin(), Errno::ok);
  op.fill_record(rec);
  EXPECT_EQ(rec.pid, 3);
  EXPECT_EQ(journal.name(rec), "nop");
  EXPECT_FALSE(rec.st_uid.has_value());
  EXPECT_FALSE(rec.st_gid.has_value());
  EXPECT_FALSE(rec.st_ino.has_value());
  EXPECT_FALSE(rec.applied_ino.has_value());
}

TEST(SemaphoreTest, StartsFreeWithNoWaiters) {
  Semaphore sem(9);
  EXPECT_EQ(sem.ino(), 9u);
  EXPECT_EQ(sem_label(sem.ino()), "i_sem:9");
  EXPECT_FALSE(sem.held());
  EXPECT_EQ(sem.owner(), kNoPid);
  EXPECT_EQ(sem.waiters(), 0u);
}

TEST(EventFlagTest, ResetClearsTheFlag) {
  EventFlag flag("handoff");
  EXPECT_EQ(flag.name(), "handoff");
  EXPECT_FALSE(flag.is_set());
  flag.reset();  // idempotent on an unset flag
  EXPECT_FALSE(flag.is_set());
}

}  // namespace
}  // namespace tocttou::sim
