// Production-scale multi-tenant machine simulation: sweeps tenant
// process count x cores x load intensity, recording how background load
// moves attack success and detector efficacy, and profiling the
// simulator's own scaling — the indexed run queue and vectorized inode/fd
// tables must keep per-event cost flat while the machine grows 10x
// (O(10^3) processes, O(10^5) inodes), and each campaign worker stages
// the tree once and starts every round from a copy-on-write copy.
//
//   ./bench_scale_tenancy [output.json]
//
// Writes BENCH_scale_tenancy.json (CI artifact). Knobs:
//   TOCTTOU_ROUNDS       rounds per sweep cell (default 10)
//   TOCTTOU_SCALE_PROCS  the large tenant count (default 1024; CI's
//                        bench job runs the reduced 256 sweep)
//
// Every cell runs serially with a metrics::WallProfile attached, so its
// per-event cost is event-loop time over events, and per-round set-up
// and audit time are reported beside it rather than folded into it.
// Set-up is amortised over the cell's rounds: the first round stages
// the template tree and audits it once, every round copies it. A
// round's audit time is its delta audit against that template.
//
// Hard CHECK: per-event event-loop cost at SCALE procs <= 2.5x the cost
// at SCALE/10 (flat within cache noise; an O(P) structure on the hot
// path fails this by an order of magnitude).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/metrics/profile.h"

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int env_or(const char* name, int dflt) {
  if (const char* env = std::getenv(name)) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return dflt;
}

struct Cell {
  std::string name;
  core::ScenarioConfig cfg;
  int procs = 0;
  int intensity = 1;
  bool detect = false;
};

struct CellReport {
  std::string name;
  std::string testbed;
  int ncpus = 0;
  int procs = 0;
  int intensity = 1;
  std::uint64_t inodes = 0;
  int rounds = 0;
  double success_rate = 0.0;
  int victim_incomplete = 0;
  int anomalies = 0;
  unsigned long long events = 0;
  double wall_secs = 0.0;
  double per_event_ns = 0.0;  // event-loop (sim) time per event
  double setup_ms_per_round = 0.0;
  double audit_ms_per_round = 0.0;
  double rounds_per_sec = 0.0;
  // Detector efficacy (detect cells only): flagged_share is the share
  // of successful rounds the happens-before detector flagged.
  bool detected_ran = false;
  unsigned long long races = 0;
  unsigned long long windows = 0;
  unsigned long long rounds_with_race = 0;
  double flagged_share = 0.0;
};

core::ScenarioConfig base_cfg(const programs::TestbedProfile& profile,
                              int procs, int intensity,
                              std::uint64_t inodes) {
  core::ScenarioConfig cfg;
  cfg.profile = profile;
  cfg.victim = core::VictimKind::vi;
  cfg.attacker = core::AttackerKind::naive;
  cfg.seed = 42;
  // Bounded rounds: a victim starved by a saturated tenant fleet is
  // recorded as victim_incomplete data instead of simulating 30s.
  cfg.round_limit = Duration::seconds(2);
  if (procs > 0 || inodes > 0) {
    std::string err;
    const std::string spec =
        strfmt("procs=%d,intensity=%d,inodes=%llu", procs, intensity,
               static_cast<unsigned long long>(inodes));
    TOCTTOU_CHECK(
        programs::BackgroundSpec::parse(spec, &cfg.background, &err),
        "bench background spec must parse");
  }
  return cfg;
}

CellReport run_cell(const Cell& cell, int rounds) {
  CellReport r;
  r.name = cell.name;
  r.testbed = cell.cfg.profile.name;
  r.ncpus = cell.cfg.profile.machine.n_cpus;
  r.procs = cell.procs;
  r.intensity = cell.intensity;
  r.inodes = cell.cfg.background.prestage_inodes;
  r.rounds = rounds;
  core::ScenarioConfig cfg = cell.cfg;
  cfg.detect = cell.detect;
  metrics::WallProfile wall;  // serial-only, hence jobs=1 below
  cfg.wall_profile = &wall;
  const auto t0 = Clock::now();
  const core::CampaignStats stats =
      core::run_campaign(cfg, rounds, /*measure_ld=*/false, /*jobs=*/1);
  r.wall_secs = seconds_since(t0);
  r.success_rate = stats.success.rate();
  r.victim_incomplete = stats.victim_incomplete;
  r.anomalies = stats.anomalies;
  r.events = stats.total_events;
  r.per_event_ns = stats.total_events > 0
                       ? static_cast<double>(wall.sim_ns) /
                             static_cast<double>(stats.total_events)
                       : 0.0;
  r.setup_ms_per_round = static_cast<double>(wall.setup_ns) / 1e6 / rounds;
  r.audit_ms_per_round = static_cast<double>(wall.audit_ns) / 1e6 / rounds;
  r.rounds_per_sec = static_cast<double>(rounds) / r.wall_secs;
  if (cell.detect) {
    r.detected_ran = true;
    r.races = stats.detect.races;
    r.windows = stats.detect.windows;
    r.rounds_with_race = stats.detect.rounds_with_race;
    r.flagged_share =
        stats.success.successes() > 0
            ? static_cast<double>(stats.detect.rounds_with_race) /
                  static_cast<double>(stats.success.successes())
            : 0.0;
  }
  std::printf("%-26s %4d procs x%d  %5d rounds  success %5.1f%%  "
              "%8llu ev  %7.1f ns/ev  setup %6.2f ms/r  audit %6.2f ms/r  "
              "%8.2f r/s%s\n",
              r.name.c_str(), r.procs, r.intensity, rounds,
              100.0 * r.success_rate, r.events, r.per_event_ns,
              r.setup_ms_per_round, r.audit_ms_per_round, r.rounds_per_sec,
              r.detected_ran
                  ? strfmt("  flagged %.0f%%", 100.0 * r.flagged_share).c_str()
                  : "");
  return r;
}

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_scale_tenancy.json";
  const int rounds = env_or("TOCTTOU_ROUNDS", 10);
  const int scale = env_or("TOCTTOU_SCALE_PROCS", 1024);
  const int tenth = std::max(1, scale / 10);
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  const auto up = programs::testbed_uniprocessor_xeon();
  const auto smp = programs::testbed_smp_dual_xeon();
  const auto mc = programs::testbed_multicore_pentium_d();

  // --- the sweep: procs x cores x intensity ---------------------------
  std::vector<Cell> cells;
  auto add = [&cells](const char* name, const programs::TestbedProfile& tb,
                      int procs, int intensity, std::uint64_t inodes,
                      bool detect) {
    Cell c;
    c.name = name;
    c.cfg = base_cfg(tb, procs, intensity, inodes);
    c.procs = procs;
    c.intensity = intensity;
    c.detect = detect;
    cells.push_back(std::move(c));
  };
  // Cores axis at intensity 1. The uniprocessor skips the full-scale
  // point: a 1-CPU machine under O(10^3) tenants starves the victim for
  // the whole round, which the tenth-scale point already demonstrates.
  add("up_baseline", up, 0, 1, 0, true);
  add("up_tenants_tenth", up, tenth, 1, 0, true);
  add("smp_baseline", smp, 0, 1, 0, true);
  add("smp_tenants_tenth", smp, tenth, 1, 0, true);
  add("smp_tenants_full", smp, scale, 1, 0, false);
  add("mc_baseline", mc, 0, 1, 0, true);
  add("mc_tenants_tenth", mc, tenth, 1, 0, true);
  add("mc_tenants_full", mc, scale, 1, 0, false);
  // Intensity axis (smp, tenth scale).
  add("smp_intensity_x2", smp, tenth, 2, 0, false);
  add("smp_intensity_x4", smp, tenth, 4, 0, false);
  // Machine scale: O(10^5) pre-staged inodes on top of the full fleet.
  add("smp_machine_scale", smp, scale, 1,
      static_cast<std::uint64_t>(scale) * 100, false);

  std::vector<CellReport> reports;
  reports.reserve(cells.size());
  for (const Cell& c : cells) reports.push_back(run_cell(c, rounds));

  // --- CHECK: flat per-event cost over 10x proc growth ----------------
  const CellReport* tenth_cell = nullptr;
  const CellReport* full_cell = nullptr;
  for (const CellReport& r : reports) {
    if (r.name == "smp_tenants_tenth") tenth_cell = &r;
    if (r.name == "smp_tenants_full") full_cell = &r;
  }
  TOCTTOU_CHECK(tenth_cell != nullptr && full_cell != nullptr,
                "sweep must include the smp tenth/full cells");
  const double cost_ratio = full_cell->per_event_ns / tenth_cell->per_event_ns;
  std::printf("per-event event-loop cost: %.1f ns at %d procs vs %.1f ns at "
              "%d procs (ratio %.2fx)\n",
              full_cell->per_event_ns, scale, tenth_cell->per_event_ns, tenth,
              cost_ratio);
  TOCTTOU_CHECK(cost_ratio <= 2.5,
                "per-event cost must stay flat over 10x process growth");

  // --- JSON artifact --------------------------------------------------
  std::string json = "{\n";
  json += "  \"bench\": \"scale_tenancy\",\n";
  json += strfmt("  \"hardware_threads\": %u,\n", hw_threads);
  json += strfmt("  \"scale_procs\": %d,\n", scale);
  json += strfmt("  \"rounds_per_cell\": %d,\n", rounds);
  json += "  \"cells\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CellReport& r = reports[i];
    json += strfmt(
        "    {\"name\": \"%s\", \"testbed\": \"%s\", \"ncpus\": %d, "
        "\"procs\": %d, \"intensity\": %d, \"prestage_inodes\": %llu, "
        "\"rounds\": %d, \"success_rate\": %.4f, \"victim_incomplete\": %d, "
        "\"anomalies\": %d, \"events\": %llu, \"wall_secs\": %.3f, "
        "\"per_event_ns\": %.2f, \"setup_ms_per_round\": %.3f, "
        "\"audit_ms_per_round\": %.3f, \"rounds_per_sec\": %.3f",
        r.name.c_str(), r.testbed.c_str(), r.ncpus, r.procs, r.intensity,
        static_cast<unsigned long long>(r.inodes), r.rounds, r.success_rate,
        r.victim_incomplete, r.anomalies, r.events, r.wall_secs,
        r.per_event_ns, r.setup_ms_per_round, r.audit_ms_per_round,
        r.rounds_per_sec);
    if (r.detected_ran) {
      json += strfmt(
          ", \"detect\": {\"races\": %llu, \"windows\": %llu, "
          "\"rounds_with_race\": %llu, \"flagged_share\": %.4f}",
          r.races, r.windows, r.rounds_with_race, r.flagged_share);
    }
    json += strfmt("}%s\n", i + 1 < reports.size() ? "," : "");
  }
  json += "  ],\n";
  json += strfmt(
      "  \"per_event_cost\": {\"procs_tenth\": %d, \"ns_tenth\": %.2f, "
      "\"procs_full\": %d, \"ns_full\": %.2f, \"ratio\": %.4f, "
      "\"max_allowed_ratio\": 2.5}\n",
      tenth, tenth_cell->per_event_ns, scale, full_cell->per_event_ns,
      cost_ratio);
  json += "}\n";

  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  f << json;
  std::printf("wrote %s\n", out_path);
  return 0;
}
