// WindowTracker: the victim's tightest <check, use> window, found online
// from one process's completed calls. The differential test compares it
// with the batch rule written out over the whole call list — each
// successful check pairs with the earliest use entering at or after its
// exit, the smallest gap wins, the earliest check on a tie — over
// seeded call sequences that keep one process's calls from overlapping,
// as the kernel does.
#include "tocttou/trace/window.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "tocttou/common/rng.h"

namespace tocttou::trace {
namespace {

using namespace tocttou::literals;

constexpr Pid kVictim = 3;

// One completed call, as text.
struct Call {
  Pid pid = 0;
  std::string_view name;
  SimTime enter;
  SimTime exit;
  Errno result = Errno::ok;
  std::string_view path;
  std::string_view path2;
};

Call call(const char* name, std::int64_t enter_us, std::int64_t exit_us,
          const char* path, const char* path2 = "", Errno result = Errno::ok,
          Pid pid = kVictim) {
  return {pid,    name, SimTime::origin() + Duration::micros(enter_us),
          SimTime::origin() + Duration::micros(exit_us),
          result, path, path2};
}

struct Window {
  bool found = false;
  SimTime open;
  SimTime use;
  bool operator==(const Window&) const = default;
};

Window tracked(const std::vector<Call>& calls, const WindowSpec& spec) {
  SyscallJournal journal;
  for (const Call& c : calls) {
    journal.append(c.pid, c.name, c.enter, c.exit, c.result, c.path, c.path2);
  }
  WindowTracker t(kVictim, spec);
  for (const SyscallRecord& r : journal.records()) t.add(journal, r);
  if (!t.found()) return {};
  return {true, t.open(), t.use()};
}

/// The batch rule over the whole list.
Window reference(const std::vector<Call>& calls, const WindowSpec& spec) {
  Window w;
  std::optional<Duration> best;
  for (const Call& c : calls) {
    if (c.pid != kVictim || c.name != spec.check_call) continue;
    if (c.result != Errno::ok) continue;
    if ((spec.check_on_path2 ? c.path2 : c.path) != spec.path) continue;
    const Call* first = nullptr;
    for (const Call& u : calls) {
      if (u.pid != kVictim || u.name != spec.use_call || u.path != spec.path) {
        continue;
      }
      if (u.enter >= c.exit && (first == nullptr || u.enter < first->enter)) {
        first = &u;
      }
    }
    if (first == nullptr) continue;
    const Duration gap = first->enter - c.exit;
    if (!best || gap < *best) {
      best = gap;
      w = {true, c.exit, first->enter};
    }
  }
  return w;
}

TEST(WindowTrackerTest, KeepsTheTightestPair) {
  const std::vector<Call> calls = {
      call("open", 0, 10, "/h/f"),
      call("open", 100, 120, "/h/f"),
      call("chown", 220, 230, "/h/f"),
  };
  const Window w = tracked(calls, WindowSpec::vi("/h/f"));
  EXPECT_EQ(w, (Window{true, SimTime::origin() + 120_us,
                       SimTime::origin() + 220_us}));
}

TEST(WindowTrackerTest, FailedChecksDoNotOpenAndFailedUsesClose) {
  const std::vector<Call> calls = {
      call("open", 0, 10, "/h/f"),
      call("open", 20, 20, "/h/f", "", Errno::eintr),  // failed at entry
      call("chown", 30, 30, "/h/f", "", Errno::eintr),
      call("chown", 40, 50, "/h/f"),
  };
  const Window w = tracked(calls, WindowSpec::vi("/h/f"));
  EXPECT_EQ(w, (Window{true, SimTime::origin() + 10_us,
                       SimTime::origin() + 30_us}));
}

TEST(WindowTrackerTest, GeditChecksTheRenameTarget) {
  const std::vector<Call> calls = {
      call("rename", 0, 10, "/h/f", "/h/f~"),  // backup: f is path
      call("rename", 20, 30, "/h/.tmp", "/h/f"),
      call("chmod", 47, 55, "/h/f"),
  };
  const Window w = tracked(calls, WindowSpec::gedit("/h/f"));
  EXPECT_EQ(w, (Window{true, SimTime::origin() + 30_us,
                       SimTime::origin() + 47_us}));
}

TEST(WindowTrackerTest, IgnoresOtherProcessesAndPaths) {
  const std::vector<Call> calls = {
      call("open", 0, 10, "/h/f", "", Errno::ok, kVictim + 1),
      call("open", 0, 10, "/h/g"),
      call("chown", 20, 30, "/h/f"),
  };
  EXPECT_FALSE(tracked(calls, WindowSpec::vi("/h/f")).found);
  EXPECT_FALSE(WindowTracker().found());
}

TEST(WindowTrackerTest, ZeroLengthCallsAtOneInstant) {
  // A use, then a check, both failing or finishing at the same instant:
  // the use enters at the check's exit, so it closes that check.
  const std::vector<Call> calls = {
      call("chown", 10, 10, "/h/f", "", Errno::eintr),
      call("open", 10, 10, "/h/f"),
      call("chown", 20, 25, "/h/f"),
  };
  const WindowSpec spec = WindowSpec::vi("/h/f");
  EXPECT_EQ(tracked(calls, spec), reference(calls, spec));
  EXPECT_EQ(tracked(calls, spec).use, SimTime::origin() + 10_us);
}

TEST(WindowTrackerTest, MatchesTheBatchRuleOnSeededSequences) {
  // Calls of one process never overlap: each enters at or after the
  // previous one's exit. Zero gaps and zero lengths are common, so the
  // tie and same-instant cases come up often. The other process's calls
  // interleave freely.
  const WindowSpec specs[] = {
      WindowSpec::vi("/h/f"),
      WindowSpec::gedit("/h/f"),
      WindowSpec{"lstat", false, "open", "/h/f"},
      WindowSpec{"open", false, "open", "/h/f"},  // one call is both
  };
  const char* names[] = {"open", "chown", "rename", "chmod", "lstat", "stat"};
  const char* paths[] = {"/h/f", "/h/g"};
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    std::vector<Call> calls;
    std::int64_t t = 0;
    const int n = static_cast<int>(rng.uniform_int(0, 14));
    for (int i = 0; i < n; ++i) {
      t += rng.uniform_int(0, 2) * 10;
      const std::int64_t exit = t + rng.uniform_int(0, 2) * 10;
      const Errno result = rng.bernoulli(0.2) ? Errno::eintr : Errno::ok;
      const Pid pid = rng.bernoulli(0.2) ? kVictim + 1 : kVictim;
      calls.push_back(call(names[rng.uniform_int(0, 5)], t, exit,
                           paths[rng.uniform_int(0, 1)],
                           paths[rng.uniform_int(0, 1)], result, pid));
      if (pid == kVictim) t = exit;
    }
    for (const WindowSpec& spec : specs) {
      const Window want = reference(calls, spec);
      ASSERT_EQ(tracked(calls, spec), want) << "seed " << seed;
      if (want.found) ++found;
    }
  }
  EXPECT_GT(found, 500);  // the sequences exercise the rule
}

}  // namespace
}  // namespace tocttou::trace
