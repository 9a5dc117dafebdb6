// Standalone (gtest-free) allocation check for the journal and the
// detector. A counting global operator new tallies every heap allocation
// in this process. Two requirements:
//
//  1. Once a journal's record capacity is reserved, appending records
//     whose op names and paths it has already interned allocates
//     nothing.
//  2. The allocations detect::analyze_round makes do not grow with the
//     round's record count. On each of the uniprocessor and the SMP
//     testbed, vi's rounds at 4 KB and at 100 KB for two seeds must make
//     the same number of allocations, net of what the returned report
//     holds (its findings, their strings and its map nodes). The file
//     size alone barely changes an up/vi journal (seed 1: 2,488 records
//     at 4 KB, 2,500 at 100 KB), so the seeds differ too: at seed 3 the
//     attacker's stat loop runs twice as long.
//
// Exits non-zero otherwise.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "tocttou/core/harness.h"
#include "tocttou/detect/detector.h"
#include "tocttou/programs/testbeds.h"

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Out of line, so that GCC does not pair an inlined free() with the
// new-expression and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace tocttou;

/// A string that outgrows the inline buffer holds one allocation.
std::size_t heap(const std::string& s) {
  return s.size() > std::string().capacity() ? 1 : 0;
}

/// Allocations the report keeps: its findings vector, grown one
/// push_back at a time, each finding's long strings, and one node (plus
/// a long key) per map entry.
std::size_t held_by(const detect::DetectReport& rep) {
  std::size_t n = 0;
  if (!rep.findings.empty()) n += std::bit_width(rep.findings.size() - 1) + 1;
  for (const detect::RaceFinding& f : rep.findings) {
    n += heap(f.check_call) + heap(f.use_call) + heap(f.path) +
         heap(f.mutator_call);
  }
  for (const auto* m :
       {&rep.pair_windows, &rep.pair_races, &rep.ordered_mutations}) {
    for (const auto& [key, count] : *m) n += 1 + heap(key);
  }
  return n;
}

struct Analysis {
  std::size_t records = 0;
  std::size_t allocations = 0;  // net of what the report holds
};

Analysis analyze(const programs::TestbedProfile& testbed,
                 std::uint64_t file_bytes, std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.profile = testbed;
  cfg.victim = core::VictimKind::vi;
  cfg.attacker = core::AttackerKind::naive;
  cfg.file_bytes = file_bytes;
  cfg.detect = true;
  cfg.seed = seed;
  const core::RoundResult r = core::run_round(cfg);
  const std::size_t before = g_allocations;
  const detect::DetectReport rep =
      detect::analyze_round(r.sync, r.trace.journal);
  const std::size_t made = g_allocations - before;
  return {r.trace.journal.records().size(), made - held_by(rep)};
}

}  // namespace

int main() {
  bool ok = true;

  // 1. Appends of interned strings.
  trace::SyscallJournal journal;
  constexpr int kAppends = 10000;
  journal.reserve(kAppends + 2);
  const char* target = "/home/alice/.goutputstream-detect-alloc";
  const char* watched = "/home/alice/f.txt";
  journal.append(1, "stat", SimTime{}, SimTime{}, Errno::ok, watched);
  journal.append(2, "rename", SimTime{}, SimTime{}, Errno::ok, target,
                 watched);
  const std::size_t before = g_allocations;
  for (int i = 0; i < kAppends; ++i) {
    const SimTime t = SimTime::from_ns(i);
    if (i % 2 == 0) {
      journal.append(1, "stat", t, t, Errno::ok, watched).st_uid = 0;
    } else {
      journal.append(2, "rename", t, t, Errno::ok, target, watched);
    }
  }
  const std::size_t appended = g_allocations - before;
  std::printf("%d appends of interned strings: %zu allocations\n", kAppends,
              appended);
  if (appended != 0) {
    std::printf("FAIL: appending interned strings allocated\n");
    ok = false;
  }

  // 2. analyze_round against the record count.
  const std::pair<const char*, programs::TestbedProfile> testbeds[] = {
      {"up", programs::testbed_uniprocessor_xeon()},
      {"smp", programs::testbed_smp_dual_xeon()}};
  for (const auto& [name, testbed] : testbeds) {
    std::vector<Analysis> runs;
    for (const std::uint64_t seed : {1, 3}) {
      for (const std::uint64_t bytes : {4096, 100 * 1024}) {
        runs.push_back(analyze(testbed, bytes, seed));
        std::printf("analyze_round, %s/vi %llu B seed %llu: %zu records, "
                    "%zu allocations net of the report\n",
                    name, static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(seed), runs.back().records,
                    runs.back().allocations);
      }
    }
    const auto [fewest, most] = std::minmax_element(
        runs.begin(), runs.end(), [](const Analysis& a, const Analysis& b) {
          return a.records < b.records;
        });
    if (10 * most->records < 19 * fewest->records) {
      std::printf("FAIL: the %s rounds differ less than 1.9x in length\n",
                  name);
      ok = false;
    }
    for (const Analysis& a : runs) {
      if (a.allocations != runs.front().allocations) {
        std::printf("FAIL: analyze_round's allocations grow with the "
                    "records\n");
        ok = false;
        break;
      }
    }
  }
  return ok ? 0 : 1;
}
