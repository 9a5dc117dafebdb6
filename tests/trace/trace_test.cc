#include "tocttou/trace/trace.h"

#include <gtest/gtest.h>

#include "tocttou/common/error.h"
#include "tocttou/trace/journal.h"

namespace tocttou::trace {
namespace {

using namespace tocttou::literals;

TraceEvent ev(Pid pid, std::int64_t b_us, std::int64_t e_us, Category cat,
              std::string label) {
  TraceEvent e;
  e.begin = SimTime::origin() + Duration::micros(b_us);
  e.end = SimTime::origin() + Duration::micros(e_us);
  e.pid = pid;
  e.cpu = 0;
  e.category = cat;
  e.label = std::move(label);
  return e;
}

TEST(TraceLogTest, AddAndQuery) {
  TraceLog log;
  log.set_process_name(1, "vi");
  log.add(ev(1, 0, 10, Category::syscall, "open"));
  log.add(ev(1, 10, 12, Category::compute, "comp"));
  log.add(ev(2, 5, 9, Category::syscall, "stat"));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.process_name(1), "vi");
  EXPECT_EQ(log.process_name(2), "pid2");  // unnamed fallback
  EXPECT_EQ(log.pids(), (std::vector<Pid>{1, 2}));
  EXPECT_EQ(log.for_pid(1).size(), 2u);
}

TEST(TraceLogTest, RejectsNegativeSpan) {
  TraceLog log;
  EXPECT_THROW(log.add(ev(1, 10, 5, Category::compute, "x")), SimError);
}

TEST(TraceLogTest, CsvContainsHeaderAndRows) {
  TraceLog log;
  log.set_process_name(1, "gedit");
  log.add(ev(1, 0, 3, Category::syscall, "rename"));
  const std::string csv = log.to_csv();
  EXPECT_NE(csv.find("begin_us,end_us,pid,name"), std::string::npos);
  EXPECT_NE(csv.find("gedit"), std::string::npos);
  EXPECT_NE(csv.find("rename"), std::string::npos);
}

TEST(GanttTest, RendersRowsPerProcess) {
  TraceLog log;
  log.set_process_name(1, "gedit");
  log.set_process_name(2, "attacker");
  log.add(ev(1, 0, 50, Category::syscall, "rename"));
  log.add(ev(1, 50, 53, Category::compute, "comp"));
  log.add(ev(2, 10, 40, Category::sem_wait, "sem:i_sem:4"));
  const std::string out = render_gantt(log, {});
  EXPECT_NE(out.find("gedit"), std::string::npos);
  EXPECT_NE(out.find("attacker"), std::string::npos);
  EXPECT_NE(out.find("rename"), std::string::npos);
  EXPECT_NE(out.find("~"), std::string::npos);  // sem-wait fill
}

TEST(GanttTest, EmptyLog) {
  TraceLog log;
  EXPECT_EQ(render_gantt(log, {}), "(empty trace)\n");
}

TEST(GanttTest, MergesAdjacentSameLabelSegments) {
  // One syscall executed as three work steps with sub-column gaps must
  // render as a single block (and a clearly separated later call must
  // not be merged in).
  TraceLog log;
  log.set_process_name(1, "vi");
  log.add(ev(1, 0, 10, Category::syscall, "write"));
  log.add(ev(1, 10, 20, Category::syscall, "write"));
  log.add(ev(1, 20, 30, Category::syscall, "write"));
  log.add(ev(1, 80, 90, Category::syscall, "write"));
  GanttOptions opts;
  opts.width = 60;
  const std::string merged = render_gantt(log, opts);
  // Two separate "write" blocks: exactly two 'w' label starts.
  std::size_t count = 0, pos = 0;
  while ((pos = merged.find("write", pos)) != std::string::npos) {
    ++count;
    pos += 5;
  }
  EXPECT_EQ(count, 2u);

  opts.merge_adjacent = false;
  const std::string unmerged = render_gantt(log, opts);
  count = 0;
  pos = 0;
  while ((pos = unmerged.find("write", pos)) != std::string::npos) {
    ++count;
    pos += 5;
  }
  EXPECT_EQ(count, 4u);
}

TEST(GanttTest, WindowClipping) {
  TraceLog log;
  log.add(ev(1, 0, 100, Category::syscall, "write"));
  GanttOptions opts;
  opts.from = SimTime::origin() + 90_us;
  opts.to = SimTime::origin() + 95_us;
  const std::string out = render_gantt(log, opts);
  EXPECT_NE(out.find("90.0us"), std::string::npos);
}

TEST(JournalTest, ForPidSortsAndFilters) {
  SyscallJournal j;
  j.append(1, "stat", SimTime::origin() + 10_us, SimTime::origin() + 14_us,
           Errno::ok);
  j.append(1, "stat", SimTime::origin() + 2_us, SimTime::origin() + 6_us,
           Errno::ok);
  j.append(2, "stat", SimTime::origin() + 10_us, SimTime::origin() + 14_us,
           Errno::ok);
  const auto recs = j.for_pid(1, "stat");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_LT(recs[0]->enter, recs[1]->enter);
  EXPECT_EQ(recs[0]->length(), 4_us);
}

TEST(JournalTest, ForPidAndFirstAliasJournalStorage) {
  // for_pid hands out pointers INTO records() — no record copies on the
  // analysis path. Pin the aliasing so a regression back to by-value
  // returns fails loudly.
  SyscallJournal j;
  j.append(1, "stat", SimTime::origin() + 20_us, SimTime::origin() + 21_us,
           Errno::ok);
  j.append(1, "stat", SimTime::origin() + 5_us, SimTime::origin() + 6_us,
           Errno::ok);
  const auto recs = j.for_pid(1, "stat");
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0], &j.records()[1]);  // earlier enter sorts first
  EXPECT_EQ(recs[1], &j.records()[0]);
}

TEST(JournalTest, CsvExport) {
  SyscallJournal j;
  j.append(3, "chown", SimTime::origin() + 10_us, SimTime::origin() + 12_us,
           Errno::ok, "/h/f")
      .applied_ino = 42;
  const std::string csv = j.to_csv();
  EXPECT_NE(csv.find("enter_us,exit_us,pid,name"), std::string::npos);
  EXPECT_NE(csv.find("10.000,12.000,3,chown,OK,/h/f,,,,,42"),
            std::string::npos);
}

}  // namespace
}  // namespace tocttou::trace
