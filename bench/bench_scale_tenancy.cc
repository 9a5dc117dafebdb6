// Production-scale multi-tenant machine simulation: sweeps tenant
// process count x cores x load intensity, recording how background load
// moves attack success and detector efficacy, and profiling the
// simulator's own scaling — the indexed run queue and vectorized inode/fd
// tables must keep per-event cost flat while the machine grows 10x
// (O(10^3) processes, O(10^5) inodes), and each campaign worker stages
// the tree once and starts every round from a copy-on-write copy.
//
//   ./bench_scale_tenancy [output.json]
//   ./bench_scale_tenancy --smoke
//
// Writes BENCH_scale_tenancy.json (CI artifact). Knobs:
//   TOCTTOU_ROUNDS       rounds per sweep cell (default 10)
//   TOCTTOU_SCALE_PROCS  the large tenant count (default 1024; CI's
//                        bench job runs the reduced 256 sweep)
// --smoke runs the whole bench once at 512 tenants, 16 rounds per cell
// and one short pass of the machine-scale cell, holds every CHECK and
// writes no JSON (a tier-1 ctest).
//
// Every sweep cell runs serially with a metrics::WallProfile attached,
// so its per-event cost is event-loop time over events, and per-round
// set-up and audit time are reported beside it rather than folded into
// it. Set-up is amortised over the cell's rounds: the first round
// stages the template tree and audits it once, every round copies it.
// A round's audit time is its delta audit against that template.
//
// The machine-scale cell (SCALE tenants over SCALE x 100 staged inodes)
// is timed like bench_core_hotpath's units: two units, each sized to
// about a second from a warm-up, run kPasses passes interleaved pass by
// pass, reported as median and quartiles. One unit is the cell's
// campaign (rounds/s, set-up and audit ms per round). The other follows
// the template through its life, on a standalone Vfs staged like the
// campaign's: stage, full audit, the first round's copy, that copy's
// teardown (as copied, so it releases what it shares) and the template's
// teardown.
//
// Hard CHECKs: per-event event-loop cost at SCALE procs <= 2.5x the cost
// at SCALE/10, each the fastest of kBarPasses alternating runs of its
// cell (flat within cache noise; an O(P) structure on the hot path fails
// this by an order of magnitude; host noise only adds time), and the
// staged template audits clean.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_timing.h"
#include "tocttou/common/error.h"
#include "tocttou/common/stats.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/metrics/profile.h"
#include "tocttou/programs/background.h"

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPasses = 5;
constexpr double kPassSeconds = 1.0;
constexpr int kBarPasses = 3;

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

CellReport run_cell(const Cell& cell, int rounds, bool print = true) {
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
  if (!print) return r;
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

/// The machine-scale cell, timed in interleaved passes: its campaign,
/// and the life of its template tree, in milliseconds per life.
struct MachineScale {
  CellReport cell;  // the first campaign pass
  long long rounds_per_pass = 0;
  long long lives_per_pass = 0;
  Samples rounds_per_sec;
  Samples per_event_ns;
  Samples setup_ms_per_round;
  Samples audit_ms_per_round;
  Samples stage_ms;
  Samples template_audit_ms;
  Samples first_copy_ms;
  Samples round_teardown_ms;
  Samples template_teardown_ms;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// `lives` lives of the cell's template, each on a standalone Vfs staged
/// with the campaign's tenant tree; adds their mean layer times to `out`
/// (when given).
void template_lives(const Cell& cell, long long lives, MachineScale* out) {
  double stage = 0, audit = 0, copy = 0, round_down = 0, tpl_down = 0;
  for (long long i = 0; i < lives; ++i) {
    const auto t0 = Clock::now();
    auto tpl = std::make_unique<fs::Vfs>(cell.cfg.profile.costs);
    programs::stage_background_tree(*tpl, cell.cfg.background);
    const auto t1 = Clock::now();
    const bool clean = tpl->audit().empty();
    const auto t2 = Clock::now();
    auto round = std::make_unique<fs::Vfs>(*tpl);
    const auto t3 = Clock::now();
    round.reset();
    const auto t4 = Clock::now();
    tpl.reset();
    const auto t5 = Clock::now();
    TOCTTOU_CHECK(clean, "the staged template must audit clean");
    stage += ms_between(t0, t1);
    audit += ms_between(t1, t2);
    copy += ms_between(t2, t3);
    round_down += ms_between(t3, t4);
    tpl_down += ms_between(t4, t5);
  }
  if (out == nullptr) return;
  const auto n = static_cast<double>(lives);
  out->stage_ms.add(stage / n);
  out->template_audit_ms.add(audit / n);
  out->first_copy_ms.add(copy / n);
  out->round_teardown_ms.add(round_down / n);
  out->template_teardown_ms.add(tpl_down / n);
}

MachineScale time_machine_scale(const Cell& cell, int passes,
                                double pass_seconds) {
  MachineScale m;
  const auto campaign = [&cell](long long rounds) {
    run_cell(cell, static_cast<int>(rounds), /*print=*/false);
  };
  const auto lives = [&cell](long long n) {
    template_lives(cell, n, nullptr);
  };
  m.rounds_per_pass = bench::size_pass(campaign, 8, pass_seconds);
  m.lives_per_pass = bench::size_pass(lives, 1, pass_seconds);
  for (int pass = 0; pass < passes; ++pass) {
    const CellReport r =
        run_cell(cell, static_cast<int>(m.rounds_per_pass), pass == 0);
    if (pass == 0) m.cell = r;
    m.rounds_per_sec.add(r.rounds_per_sec);
    m.per_event_ns.add(r.per_event_ns);
    m.setup_ms_per_round.add(r.setup_ms_per_round);
    m.audit_ms_per_round.add(r.audit_ms_per_round);
    template_lives(cell, m.lives_per_pass, &m);
  }
  std::printf("%-26s %d passes: %.2f r/s (median; p25 %.2f, p75 %.2f); "
              "setup %.3f ms/r, audit %.3f ms/r\n",
              cell.name.c_str(), passes, m.rounds_per_sec.median(),
              m.rounds_per_sec.quantile(0.25),
              m.rounds_per_sec.quantile(0.75),
              m.setup_ms_per_round.median(), m.audit_ms_per_round.median());
  std::printf("%-26s template life (median ms): stage %.3f, audit %.3f, "
              "first round copy %.4f, round teardown %.4f, template "
              "teardown %.3f\n",
              "", m.stage_ms.median(), m.template_audit_ms.median(),
              m.first_copy_ms.median(), m.round_teardown_ms.median(),
              m.template_teardown_ms.median());
  return m;
}

std::string machine_scale_json(const MachineScale& m) {
  return strfmt(
      ", \"passes\": %zu, \"rounds_per_pass\": %lld, "
      "\"rounds_per_sec_passes\": %s, \"per_event_ns_passes\": %s, "
      "\"setup_ms_per_round_passes\": %s, \"audit_ms_per_round_passes\": "
      "%s, \"template_lives_per_pass\": %lld, \"template_life_ms\": "
      "{\"stage\": %s, \"template_audit\": %s, \"first_round_copy\": %s, "
      "\"round_teardown\": %s, \"template_teardown\": %s}",
      m.rounds_per_sec.count(), m.rounds_per_pass,
      bench::quartiles(m.rounds_per_sec, 2).c_str(),
      bench::quartiles(m.per_event_ns, 1).c_str(),
      bench::quartiles(m.setup_ms_per_round, 3).c_str(),
      bench::quartiles(m.audit_ms_per_round, 3).c_str(), m.lives_per_pass,
      bench::quartiles(m.stage_ms, 3).c_str(),
      bench::quartiles(m.template_audit_ms, 3).c_str(),
      bench::quartiles(m.first_copy_ms, 4).c_str(),
      bench::quartiles(m.round_teardown_ms, 4).c_str(),
      bench::quartiles(m.template_teardown_ms, 3).c_str());
}

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;

  bool smoke = false;
  const char* out_path = "BENCH_scale_tenancy.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const int rounds = smoke ? 16 : env_or("TOCTTOU_ROUNDS", 10);
  const int scale = smoke ? 512 : env_or("TOCTTOU_SCALE_PROCS", 1024);
  const int passes = smoke ? 1 : kPasses;
  const double pass_seconds = smoke ? kPassSeconds / 20 : kPassSeconds;
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
  // Machine scale: O(10^5) pre-staged inodes on top of the full fleet,
  // timed in passes below.
  add("smp_machine_scale", smp, scale, 1,
      static_cast<std::uint64_t>(scale) * 100, false);

  std::vector<CellReport> reports;
  reports.reserve(cells.size());
  for (std::size_t i = 0; i + 1 < cells.size(); ++i) {
    reports.push_back(run_cell(cells[i], rounds));
  }
  const MachineScale machine =
      time_machine_scale(cells.back(), passes, pass_seconds);
  reports.push_back(machine.cell);

  // --- CHECK: flat per-event cost over 10x proc growth ----------------
  const Cell* tenth_cell = nullptr;
  const Cell* full_cell = nullptr;
  double ns_tenth = 0.0;
  double ns_full = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].name == "smp_tenants_tenth") {
      tenth_cell = &cells[i];
      ns_tenth = reports[i].per_event_ns;
    }
    if (cells[i].name == "smp_tenants_full") {
      full_cell = &cells[i];
      ns_full = reports[i].per_event_ns;
    }
  }
  TOCTTOU_CHECK(tenth_cell != nullptr && full_cell != nullptr,
                "sweep must include the smp tenth/full cells");
  for (int pass = 1; pass < kBarPasses; ++pass) {
    ns_tenth = std::min(ns_tenth,
                        run_cell(*tenth_cell, rounds, false).per_event_ns);
    ns_full =
        std::min(ns_full, run_cell(*full_cell, rounds, false).per_event_ns);
  }
  const double cost_ratio = ns_full / ns_tenth;
  std::printf("per-event event-loop cost (fastest of %d runs): %.1f ns at "
              "%d procs vs %.1f ns at %d procs (ratio %.2fx)\n",
              kBarPasses, ns_full, scale, ns_tenth, tenth, cost_ratio);
  TOCTTOU_CHECK(cost_ratio <= 2.5,
                "per-event cost must stay flat over 10x process growth");
  if (smoke) {
    std::printf("smoke: every check held; no JSON written\n");
    return 0;
  }

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
    if (i + 1 == reports.size()) json += machine_scale_json(machine);
    json += strfmt("}%s\n", i + 1 < reports.size() ? "," : "");
  }
  json += "  ],\n";
  json += strfmt(
      "  \"per_event_cost\": {\"runs\": %d, \"procs_tenth\": %d, "
      "\"ns_tenth\": %.2f, \"procs_full\": %d, \"ns_full\": %.2f, "
      "\"ratio\": %.4f, \"max_allowed_ratio\": 2.5}\n",
      kBarPasses, tenth, ns_tenth, scale, ns_full, cost_ratio);
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
