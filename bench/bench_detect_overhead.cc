// Measures what --detect costs: campaign rounds/s with detection off
// (one dead null check per emission site) against on (sync log,
// vector-clock replay and window matching per round). Detection is an
// observer, never a perturbation: both passes of every pair must give
// the same campaign statistics, and the detector must cover every round.
// The bench CHECKs both before reporting.
//
// A single pass of a few hundred rounds lasts tens of milliseconds, so
// one timing per side measures the host as much as the detector. Each
// workload instead sizes its pass to about a second, then runs kPairs
// pairs of passes, off and on alternating (the side that goes first
// alternates too), and reports the median and quartiles of each side's
// rounds/s and of the per-pair overhead (on time / off time - 1). A
// metrics::WallProfile attached to each detect-on pass splits out its
// analyze phase (the detector's replay and window matching) per round.
//
//   ./bench_detect_overhead [output.json]
//   ./bench_detect_overhead --smoke
//
// Writes BENCH_detect_overhead.json by default. TOCTTOU_ROUNDS=<n> fixes
// the rounds per pass instead of sizing it to a second. --smoke runs one
// off/on pair of 64 rounds per workload with the three CHECKs, and
// prints no timing table and writes no JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_timing.h"
#include "tocttou/common/error.h"
#include "tocttou/common/stats.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/metrics/profile.h"
#include "tocttou/programs/testbeds.h"

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPairs = 7;
constexpr double kPassSeconds = 1.0;
constexpr int kSmokeRounds = 64;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int fixed_rounds() {
  if (const char* env = std::getenv("TOCTTOU_ROUNDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 0;
}

struct Workload {
  const char* name;
  core::ScenarioConfig cfg;
};

core::ScenarioConfig scenario(programs::TestbedProfile profile,
                              core::VictimKind victim,
                              core::AttackerKind attacker) {
  core::ScenarioConfig cfg;
  cfg.profile = std::move(profile);
  cfg.victim = victim;
  cfg.attacker = attacker;
  cfg.file_bytes = 100 * 1024;
  cfg.seed = 11;
  return cfg;
}

std::vector<Workload> workloads() {
  return {
      {"smp_vi_naive",
       scenario(programs::testbed_smp_dual_xeon(), core::VictimKind::vi,
                core::AttackerKind::naive)},
      {"multicore_gedit_naive",
       scenario(programs::testbed_multicore_pentium_d(),
                core::VictimKind::gedit, core::AttackerKind::naive)},
      // perfbench's campaign_mc_gedit_detect scenario.
      {"multicore_gedit_prefaulted",
       scenario(programs::testbed_multicore_pentium_d(),
                core::VictimKind::gedit, core::AttackerKind::prefaulted)},
  };
}

/// Rounds per pass: doubles a detect-off pass until it lasts a tenth of
/// kPassSeconds, then scales it to kPassSeconds (a multiple of 8, the
/// campaign engine's block size). The doubling doubles as a warm-up.
int size_pass(const core::ScenarioConfig& off) {
  if (const int fixed = fixed_rounds()) return fixed;
  int n = 8;
  while (true) {
    const auto t0 = Clock::now();
    (void)core::run_campaign(off, n, false, 1);
    const double sec = seconds_since(t0);
    if (sec >= kPassSeconds / 10) {
      const int want = static_cast<int>(n * kPassSeconds / sec);
      return std::max(8, want / 8 * 8);
    }
    n *= 2;
  }
}

using bench::quartiles;

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::string out_path =
      argc > 1 && !smoke ? argv[1] : "BENCH_detect_overhead.json";
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  std::string json = "{\n  \"bench\": \"detect_overhead\",\n";
  json += strfmt("  \"hardware_threads\": %u,\n", hw_threads);
  json += strfmt("  \"pairs\": %d,\n  \"workloads\": [\n", kPairs);
  bool first = true;
  for (const auto& w : workloads()) {
    core::ScenarioConfig off = w.cfg;
    off.detect = false;
    core::ScenarioConfig on = w.cfg;
    on.detect = true;
    const int rounds = smoke ? kSmokeRounds : size_pass(off);

    Samples rps_off, rps_on, overhead, analyze_us;
    std::uint64_t windows = 0, races = 0;
    for (int pair = 0; pair < (smoke ? 1 : kPairs); ++pair) {
      double sec_off = 0.0, sec_on = 0.0;
      core::CampaignStats s_off, s_on;
      metrics::WallProfile profile;
      on.wall_profile = &profile;
      for (int side = 0; side < 2; ++side) {
        const bool run_on = (side == 0) == (pair % 2 == 1);
        const auto t0 = Clock::now();
        core::CampaignStats s = core::run_campaign(run_on ? on : off, rounds,
                                                   false, 1);
        (run_on ? sec_on : sec_off) = seconds_since(t0);
        (run_on ? s_on : s_off) = std::move(s);
      }
      TOCTTOU_CHECK(profile.rounds == static_cast<std::uint64_t>(rounds),
                    "the wall profile must cover every detect-on round");
      analyze_us.add(static_cast<double>(profile.analyze_ns) / 1e3 / rounds);
      // Detection observes; it must not change what the campaign measures.
      TOCTTOU_CHECK(s_off.summary() == s_on.summary(),
                    "detect-on campaign diverged from detect-off");
      TOCTTOU_CHECK(s_on.detect.rounds == static_cast<std::uint64_t>(rounds),
                    "detect report did not cover every round");
      rps_off.add(rounds / sec_off);
      rps_on.add(rounds / sec_on);
      overhead.add((sec_on / sec_off - 1.0) * 100.0);
      windows = s_on.detect.windows;
      races = s_on.detect.races;
    }
    if (smoke) {
      std::printf("%-28s %6d rounds off and on: %llu windows, %llu races\n",
                  w.name, rounds, static_cast<unsigned long long>(windows),
                  static_cast<unsigned long long>(races));
      continue;
    }

    std::printf(
        "%-28s %6d rounds/pass  off: %8.0f  on: %8.0f rounds/s (medians)  "
        "overhead: %5.1f%% (p25 %5.1f%%, p75 %5.1f%%)  analyze: %6.1f "
        "us/round\n",
        w.name, rounds, rps_off.median(), rps_on.median(), overhead.median(),
        overhead.quantile(0.25), overhead.quantile(0.75),
        analyze_us.median());

    if (!first) json += ",\n";
    first = false;
    json += strfmt(
        "    {\"name\": \"%s\", \"rounds_per_pass\": %d, "
        "\"rounds_per_sec_detect_off\": %s, "
        "\"rounds_per_sec_detect_on\": %s, \"overhead_pct\": %s, "
        "\"analyze_us_per_round_detect_on\": %s, "
        "\"windows\": %llu, \"races\": %llu}",
        w.name, rounds, quartiles(rps_off, 1).c_str(),
        quartiles(rps_on, 1).c_str(), quartiles(overhead, 2).c_str(),
        quartiles(analyze_us, 2).c_str(),
        static_cast<unsigned long long>(windows),
        static_cast<unsigned long long>(races));
  }
  json += "\n  ]\n}\n";
  if (smoke) {
    std::printf("smoke: every check held; no JSON written\n");
    return 0;
  }

  std::ofstream f(out_path);
  f << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
