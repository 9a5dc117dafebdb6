// Regression tests for RFC 4180 escaping in the CSV exporters: a path or
// label containing a comma or quote must stay a single CSV field.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tocttou/trace/journal.h"
#include "tocttou/trace/trace.h"

namespace tocttou::trace {
namespace {

/// Splits one CSV line per RFC 4180 (enough for round-trip checks).
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cur += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

TEST(CsvRegressionTest, JournalPathWithCommaStaysOneField) {
  SyscallJournal j;
  j.append(7, "rename", SimTime::from_ns(1000), SimTime::from_ns(2000),
           Errno::ok, "/tmp/evil,with comma", "/tmp/say \"hi\"");

  const std::string csv = j.to_csv();
  const auto nl = csv.find('\n');
  ASSERT_NE(nl, std::string::npos);
  const auto header = split_csv_line(csv.substr(0, nl));
  const auto row_end = csv.find('\n', nl + 1);
  const auto row = split_csv_line(csv.substr(nl + 1, row_end - nl - 1));
  ASSERT_EQ(row.size(), header.size());
  EXPECT_EQ(row[5], "/tmp/evil,with comma");
  EXPECT_EQ(row[6], "/tmp/say \"hi\"");
}

TEST(CsvRegressionTest, TraceLabelAndNameEscaped) {
  TraceLog log;
  log.set_process_name(3, "proc,ess");
  TraceEvent ev;
  ev.begin = SimTime::from_ns(0);
  ev.end = SimTime::from_ns(500);
  ev.pid = 3;
  ev.cpu = 0;
  ev.category = Category::syscall;
  ev.label = "open(\"a,b\")";
  ev.detail = "line1\nline2";
  log.add(ev);

  const std::string csv = log.to_csv();
  const auto nl = csv.find('\n');
  const auto header = split_csv_line(csv.substr(0, nl));
  // The detail field holds an escaped newline, so the record spans two
  // physical lines; parse from after the header to the end.
  std::string body = csv.substr(nl + 1);
  if (!body.empty() && body.back() == '\n') body.pop_back();
  // Re-join: our splitter is line-based, so splice the quoted newline
  // back by splitting on the LAST newline-free structure — simplest is
  // to split the whole body manually with the same state machine.
  std::vector<std::string> fields;
  {
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < body.size(); ++i) {
      const char c = body[i];
      if (quoted) {
        if (c == '"' && i + 1 < body.size() && body[i + 1] == '"') {
          cur += '"';
          ++i;
        } else if (c == '"') {
          quoted = false;
        } else {
          cur += c;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        fields.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    fields.push_back(cur);
  }
  ASSERT_EQ(fields.size(), header.size());
  EXPECT_EQ(fields[3], "proc,ess");
  EXPECT_EQ(fields[6], "open(\"a,b\")");
  EXPECT_EQ(fields[7], "line1\nline2");
}

TEST(CsvRegressionTest, PlainRecordsUnchangedByEscaping) {
  // No special characters -> the exporter output must not grow quotes
  // (keeps existing CSV consumers and golden files stable).
  SyscallJournal j;
  j.append(1, "stat", SimTime{}, SimTime{}, Errno::ok,
           "/home/alice/report.txt");
  EXPECT_EQ(j.to_csv().find('"'), std::string::npos);
}

}  // namespace
}  // namespace tocttou::trace
