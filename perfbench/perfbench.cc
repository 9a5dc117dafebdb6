// The benchmark program: runs one workload through the public API of core and
// explore on one thread, checks every simulated output, and prints the
// metrics BENCHMARK.json names. run.py builds it and calls it once per
// workload, so each workload's peak RSS is its own:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans FILE]
//
// --trace 0 times whole units of work with tracing off and prints the
// end-to-end metrics. --trace 1 is a separate traced run: it times
// the calls into each module from outside, reads the modules'
// deterministic counters, and prints the per-layer metrics. Either way
// the last line of stdout is the JSON result, and a failed check is
// counted there, never thrown.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measure.h"
#include "tocttou/common/rng.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/core/round_run.h"
#include "tocttou/detect/detector.h"
#include "tocttou/explore/explorer.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/programs/background.h"
#include "tocttou/programs/testbeds.h"

namespace perfbench {
namespace {

using namespace tocttou;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Pinned values hold for this seed only; every other check holds for any.
constexpr std::uint64_t kDefaultSeed = 1;
/// The sweep: up/vi, 64 think buckets, preemption bound 1. Bound 1 already
/// forks, merges by state hash and prunes by DPOR, and at under a second a
/// sweep a run holds dozens of them; the bound-5 sweep (~6 s) fits a few.
constexpr int kThinkBuckets = 64;
constexpr int kSweepBound = 1;
/// Set-ups per run; setup_s is their 90th percentile. A run spends
/// `--seconds` in timed units, plus its set-ups.
constexpr int kSetups = 11;
/// Rounds the explore workload's traced run drives through RoundRun.
constexpr int kExploreTracedRounds = 64;
/// Kernel events between two fork/hash samples on the canonical round.
constexpr std::uint64_t kForkSampleEvery = 256;
/// Repetitions of each standalone Vfs probe.
constexpr int kVfsProbeReps = 5;
/// Failed checks printed before the result line.
constexpr std::size_t kFailuresShown = 8;

enum class Kind { campaign, explore };

struct Workload {
  const char* name;
  Kind kind;
  /// Rounds per timed campaign unit (explore: one sweep per unit).
  int rounds;
  /// Rounds of the set-up's cold warm-up campaign, in whole 8-round engine
  /// blocks; more blocks make its work vary less from seed to seed
  /// (explore: the bound-0 sweep instead).
  int warmup_rounds;
  core::ScenarioConfig (*config)(std::uint64_t seed);
  CampaignPins pins;
  const char* paper;
};

core::ScenarioConfig up_vi(std::uint64_t seed) {
  core::ScenarioConfig c;
  c.profile = programs::testbed_uniprocessor_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 100 * 1024;
  c.seed = seed;
  return c;
}

core::ScenarioConfig mc_gedit_detect(std::uint64_t seed) {
  core::ScenarioConfig c;
  c.profile = programs::testbed_multicore_pentium_d();
  c.victim = core::VictimKind::gedit;
  c.attacker = core::AttackerKind::prefaulted;
  c.file_bytes = 100 * 1024;
  c.detect = true;
  c.seed = seed;
  return c;
}

core::ScenarioConfig machine_scale(std::uint64_t seed) {
  core::ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 100 * 1024;
  std::string err;
  if (!programs::BackgroundSpec::parse("procs=256,inodes=25600",
                                       &c.background, &err)) {
    std::fprintf(stderr, "perfbench: bad background spec: %s\n", err.c_str());
    std::exit(2);
  }
  c.seed = seed;
  return c;
}

const Workload kWorkloads[] = {
    {"campaign_mc_gedit_detect", Kind::campaign, 256, 32, mc_gedit_detect,
     {.successes = 77,
      .total_events = 176793,
      .races = 1424,
      .windows = 23256,
      .mutations = 44973,
      .rounds_flagged = 247},
     "paper Sec. 6.2 / Fig. 10: v2 gets \"many successes\""},
    {"campaign_machine_scale", Kind::campaign, 8, 8, machine_scale,
     {.successes = 6, .total_events = 7371},
     "unvalidated: the paper has no multi-tenant testbed"},
    {"explore_up_vi_b1", Kind::explore, 0, 0, up_vi, {},
     "paper Fig. 6: ~1.5% at 100 KB, a rate under timing noise; the sweep's "
     "probability is exact with the noise model off"},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

explore::ExploreConfig sweep_config(int bound) {
  explore::ExploreConfig e;
  e.mode = explore::ExploreMode::exhaustive;
  e.think_buckets = kThinkBuckets;
  e.preemption_bound = bound;
  e.jobs = 1;
  return e;
}

CampaignDigest digest_of(const core::CampaignStats& s) {
  CampaignDigest d;
  d.rounds = s.success.trials() + static_cast<std::uint64_t>(s.failed_rounds);
  d.successes = s.success.successes();
  d.total_events = s.total_events;
  d.anomalies = static_cast<std::uint64_t>(s.anomalies);
  d.failed_rounds = static_cast<std::uint64_t>(s.failed_rounds);
  d.victim_incomplete = static_cast<std::uint64_t>(s.victim_incomplete);
  d.attacker_unfinished = static_cast<std::uint64_t>(s.attacker_unfinished);
  d.audit_violations = s.faults.invariant_violations;
  d.detect_rounds = s.detect.rounds;
  d.races = s.detect.races;
  d.windows = s.detect.windows;
  d.mutations = s.detect.mutations;
  d.rounds_flagged = s.detect.rounds_with_race;
  return d;
}

/// Folds one round into a digest exactly as the campaign engine folds it
/// into CampaignStats.
void add_round(CampaignDigest& d, const core::ScenarioConfig& cfg,
               const core::RoundResult& r) {
  ++d.rounds;
  d.successes += r.success ? 1 : 0;
  d.total_events += r.events;
  d.anomalies += r.hit_time_limit ? 1 : 0;
  d.victim_incomplete += (!r.victim_completed && !r.hit_time_limit) ? 1 : 0;
  d.attacker_unfinished +=
      (cfg.attacker != core::AttackerKind::none && !r.attacker_finished) ? 1
                                                                          : 0;
  d.audit_violations += r.faults.invariant_violations;
  d.detect_rounds += r.detect.rounds;
  d.races += r.detect.races;
  d.windows += r.detect.windows;
  d.mutations += r.detect.mutations;
  d.rounds_flagged += r.detect.rounds_with_race;
}

std::string describe(const CampaignDigest& d) {
  std::string s = strfmt(
      "success %llu/%llu = %.1f%%, events %llu, anomalies %llu, "
      "victim-incomplete %llu",
      static_cast<unsigned long long>(d.successes),
      static_cast<unsigned long long>(d.rounds),
      100.0 * ratio(static_cast<double>(d.successes),
                    static_cast<double>(d.rounds)),
      static_cast<unsigned long long>(d.total_events),
      static_cast<unsigned long long>(d.anomalies),
      static_cast<unsigned long long>(d.victim_incomplete));
  if (d.detect_rounds > 0) {
    s += strfmt(", races %llu, windows %llu, mutations %llu, flagged %llu",
                static_cast<unsigned long long>(d.races),
                static_cast<unsigned long long>(d.windows),
                static_cast<unsigned long long>(d.mutations),
                static_cast<unsigned long long>(d.rounds_flagged));
  }
  return s;
}

/// Every deterministic ExploreResult field; two sweeps of one
/// configuration must agree on all of it.
std::string explore_digest(const explore::ExploreResult& r) {
  std::string s = strfmt(
      "schedules=%d rounds=%d policy=%d complete=%d bound=%d sleep=%llu "
      "cutoffs=%llu exact=%.17g mass=%.17g successes=%d witness=%s "
      "divergences=%d first_hit=%d window=%zu/%.17g errors=%d "
      "quarantined=%d interrupted=%d",
      r.schedules, r.rounds_executed, r.policy_schedules, r.complete ? 1 : 0,
      r.bound_reached, static_cast<unsigned long long>(r.pruned_by_sleep_set),
      static_cast<unsigned long long>(r.bound_cutoffs), r.exact_success,
      r.total_mass, r.successes,
      r.witness ? r.witness->serialize().c_str() : "-", r.witness_divergences,
      r.schedules_to_first_hit, r.window_us.count(), r.window_us.sum(),
      r.divergence_errors, r.quarantined, r.interrupted ? 1 : 0);
  for (const auto& [name, value] : r.metrics.counters()) {
    // Work-stealing and context-reuse counts depend on thread timing.
    if (name == "explore.steals" || name == "explore.ctx_reuses") continue;
    s += strfmt(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
  }
  return s;
}

std::vector<std::string> explore_health(const explore::ExploreResult& r) {
  std::vector<std::string> out;
  if (r.quarantined != 0) out.push_back(strfmt("quarantined = %d", r.quarantined));
  if (r.divergence_errors != 0) {
    out.push_back(strfmt("divergence_errors = %d", r.divergence_errors));
  }
  if (r.interrupted) out.push_back("interrupted");
  return out;
}

/// Pinned for the default seed. Schedule and work counts stay unpinned:
/// a sound reduction may lower them.
std::vector<std::string> explore_pin_problems(const explore::ExploreResult& r) {
  std::vector<std::string> out;
  if (r.exact_success != 0.03125) {
    out.push_back(strfmt("exact_success = %.17g, pinned 0.03125", r.exact_success));
  }
  if (r.total_mass != 1.0) {
    out.push_back(strfmt("total_mass = %.17g, pinned 1", r.total_mass));
  }
  if (!r.complete) out.push_back("sweep incomplete");
  if (r.bound_reached != kSweepBound) {
    out.push_back(strfmt("bound_reached = %d, pinned %d", r.bound_reached,
                         kSweepBound));
  }
  if (!r.witness) out.push_back("no witness");
  return out;
}

/// A detector report as text, for comparing two analyses of one round.
std::string report_key(const detect::DetectReport& r) {
  return r.summary() + "\n" + r.to_csv();
}

/// The process's peak RSS, VmHWM of this program's own address space
/// (getrusage's ru_maxrss would carry the launcher's peak across exec).
/// A missing figure is a failed operation.
double peak_rss_mb(Ledger& ledger) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  long kb = -1;
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
  }
  std::vector<std::string> problems;
  if (kb < 0) problems.push_back("no VmHWM in /proc/self/status");
  ledger.record("peak RSS", problems);
  return static_cast<double>(kb) / 1024.0;
}

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One workload's run: its set-ups, timed units and their checks.
class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  const Workload& workload() const { return w_; }
  std::uint64_t seed() const { return seed_; }
  const core::ScenarioConfig& config() const { return cfg_; }
  Ledger& ledger() { return ledger_; }
  const std::optional<CampaignDigest>& first_campaign() const {
    return first_campaign_;
  }
  const std::optional<explore::ExploreResult>& first_sweep() const {
    return first_sweep_;
  }

  /// Work one timed unit does: rounds for a campaign, one sweep.
  double work_per_unit() const {
    return w_.kind == Kind::campaign ? w_.rounds : 1.0;
  }

  /// Builds the profile and config, then runs a small cold unit: the
  /// warm-up campaign in a fresh RoundContext, or the bound-0 sweep over
  /// the same buckets. Returns its wall seconds.
  double setup() {
    const std::int64_t t0 = now_ns();
    cfg_ = w_.config(seed_);
    try {
      if (w_.kind == Kind::campaign) {
        const core::CampaignStats s =
            core::run_campaign(cfg_, w_.warmup_rounds, false, 1);
        const std::int64_t t1 = now_ns();
        ledger_.record("set-up block", campaign_health(digest_of(s)));
        return secs(t1 - t0);
      }
      const explore::ExploreResult r = explore::explore(cfg_, sweep_config(0));
      const std::int64_t t1 = now_ns();
      ledger_.record("set-up sweep", explore_health(r));
      return secs(t1 - t0);
    } catch (const std::exception& e) {
      ledger_.record("set-up", {e.what()});
      return secs(now_ns() - t0);
    }
  }

  /// One timed unit: the call a CLI campaign or sweep makes. Returns its
  /// wall seconds and checks the result afterwards.
  double unit() {
    const std::int64_t t0 = now_ns();
    try {
      if (w_.kind == Kind::campaign) {
        const core::CampaignStats s =
            core::run_campaign(cfg_, w_.rounds, false, 1);
        const std::int64_t t1 = now_ns();
        check_campaign_unit(ledger_, "campaign unit", digest_of(s),
                            first_campaign_,
                            seed_ == kDefaultSeed ? &w_.pins : nullptr);
        return secs(t1 - t0);
      }
      explore::ExploreResult r =
          explore::explore(cfg_, sweep_config(kSweepBound));
      const std::int64_t t1 = now_ns();
      check_sweep(r);
      return secs(t1 - t0);
    } catch (const std::exception& e) {
      ledger_.record("unit", {e.what()});
      return secs(now_ns() - t0);
    }
  }

 private:
  void check_sweep(explore::ExploreResult& r) {
    std::vector<std::string> problems = explore_health(r);
    if (!first_sweep_) {
      first_sweep_ = std::move(r);
    } else if (explore_digest(r) != explore_digest(*first_sweep_)) {
      problems.push_back("differs from the first unit");
    }
    if (seed_ == kDefaultSeed) {
      for (std::string& p : explore_pin_problems(*first_sweep_)) {
        problems.push_back(std::move(p));
      }
    }
    ledger_.record("sweep unit", problems);
  }

  const Workload& w_;
  std::uint64_t seed_;
  core::ScenarioConfig cfg_;
  Ledger ledger_;
  std::optional<CampaignDigest> first_campaign_;
  std::optional<explore::ExploreResult> first_sweep_;
};

std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

void print_json(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = strfmt(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      ledger.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted()),
      static_cast<unsigned long long>(ledger.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_checks(const Ledger& ledger) {
  std::printf("  checks: %llu operations attempted, %llu failed\n",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()));
  const std::vector<std::string>& f = ledger.failures();
  for (std::size_t i = 0; i < f.size() && i < kFailuresShown; ++i) {
    std::printf("  FAILED %s\n", f[i].c_str());
  }
  if (f.size() > kFailuresShown) {
    std::printf("  ... and %zu more failed checks\n", f.size() - kFailuresShown);
  }
}

void print_simulated(const Bench& b) {
  const Workload& w = b.workload();
  if (w.kind == Kind::campaign && b.first_campaign()) {
    std::printf("  simulated: %s\n", describe(*b.first_campaign()).c_str());
  } else if (b.first_sweep()) {
    const explore::ExploreResult& r = *b.first_sweep();
    std::printf(
        "  simulated: exact_success %.6f (%.3f%%), total_mass %.6f, "
        "complete %d, bound_reached %d, witness %s, schedules %d, "
        "rounds_executed %d\n",
        r.exact_success, 100.0 * r.exact_success, r.total_mass,
        r.complete ? 1 : 0, r.bound_reached, r.witness ? "yes" : "no",
        r.schedules, r.rounds_executed);
  }
  std::printf("  %s\n", w.paper);
}

int run_untraced(Bench& b, double seconds) {
  const Workload& w = b.workload();
  // The first set-up precedes the first unit. The others are spread over
  // the run, so that they, like the units, sample the host over the whole
  // run rather than at its first instant.
  std::vector<double> setups = {b.setup()};
  std::vector<double> walls;
  double unit_s = 0.0;
  double rss = 0.0;
  do {
    walls.push_back(b.unit());
    unit_s += walls.back();
    // What one CLI invocation holds. Repeating a sweep in one process
    // only raises the peak by allocator fragmentation (up to ~5%), by an
    // amount that depends on how many units the host's speed allowed.
    if (walls.size() == 1) rss = peak_rss_mb(b.ledger());
    while (setups.size() < static_cast<std::size_t>(kSetups) &&
           (unit_s >= seconds ||
            unit_s * kSetups >= seconds * static_cast<double>(setups.size()))) {
      setups.push_back(b.setup());
    }
  } while (unit_s < seconds);

  // Both times are paced by the slow tail of their samples (README.md,
  // steadiness.json): on a shared host, phases of seconds to minutes run
  // identical units up to 1.8x faster, and how much of a run they cover
  // moves a median from run to run far more than the 90th percentile.
  const Summary su = summarize(walls);
  const Summary ss = summarize(setups);
  const double work = b.work_per_unit();
  const double throughput = work / su.p90;
  std::printf("perfbench %s seed=%llu trace=0 hardware_threads=%u\n", w.name,
              static_cast<unsigned long long>(b.seed()),
              std::thread::hardware_concurrency());
  std::printf(
      "  throughput  %.4f 1/s  (%zu units of %s; unit wall min %.6f q1 %.6f "
      "median %.6f q3 %.6f p90 %.6f s; at the median %.6g 1/s)\n",
      throughput, su.n,
      w.kind == Kind::campaign ? strfmt("%d rounds", w.rounds).c_str()
                               : "1 sweep",
      su.min, su.q1, su.median, su.q3, su.p90, work / su.median);
  std::printf(
      "  setup_s     %.6f s  (p90 of %zu set-ups; min %.6f q1 %.6f median "
      "%.6f q3 %.6f s)\n",
      ss.p90, ss.n, ss.min, ss.q1, ss.median, ss.q3);
  std::printf("  peak_rss_mb %.1f MB  (after the first set-up and unit)\n", rss);
  print_simulated(b);
  print_checks(b.ledger());
  print_json(b.ledger(), {{"throughput", throughput, "1/s"},
                          {"setup_s", ss.p90, "s"},
                          {"peak_rss_mb", rss, "MB"}});
  return 0;
}

// ---------------------------------------------------------------------
// Traced run.

/// Host time and counts gathered while driving rounds through RoundRun.
struct RoundPass {
  CampaignDigest digest;
  int rounds = 0;
  std::int64_t unit_ns = 0;
  std::int64_t setup_ns = 0;
  std::int64_t steps_ns = 0;
  std::int64_t finish_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t journal_records = 0;
  metrics::Registry metrics;
  /// Rounds kept for the detector re-analysis (detect-on passes only).
  std::vector<core::RoundResult> kept;

  double event_ns() const {
    return ratio(static_cast<double>(steps_ns), static_cast<double>(events));
  }
  double per_round(double total) const {
    return ratio(total, static_cast<double>(rounds));
  }
  double counter_per_round(const char* name) const {
    return per_round(static_cast<double>(metrics.counter(name)));
  }
};

/// Drives `count` rounds the way the campaign engine does: one RoundRun
/// per round in one RoundContext, seeds mix_seed(cfg.seed, i), the
/// journal recorded iff `journal` (run_campaign's measure_ld), metrics
/// collected. Each call into core is timed from outside and, when `spans`
/// is given, recorded as a span; spans of round i carry i as their shared
/// id.
RoundPass traced_rounds(const core::ScenarioConfig& cfg, int count,
                        bool journal, int unit, std::vector<Span>* spans) {
  RoundPass p;
  core::RoundContext ctx;
  const std::int64_t u0 = now_ns();
  for (int i = 0; i < count; ++i) {
    core::ScenarioConfig rc = cfg;
    rc.seed = mix_seed(cfg.seed, static_cast<std::uint64_t>(i));
    rc.record_journal = journal;
    rc.record_events = false;
    rc.collect_metrics = true;
    const std::int64_t r0 = now_ns();
    try {
      core::RoundRun run(rc, &ctx);
      const std::int64_t r1 = now_ns();
      while (run.step()) {
      }
      const std::int64_t r2 = now_ns();
      core::RoundResult res = run.finish();
      const std::int64_t r3 = now_ns();
      if (spans != nullptr) {
        spans->push_back({"core.round_setup", "round", unit, i, r0, r1});
        spans->push_back({"sim.steps", "round", unit, i, r1, r2});
        spans->push_back({"core.round_finish", "round", unit, i, r2, r3});
      }
      p.setup_ns += r1 - r0;
      p.steps_ns += r2 - r1;
      p.finish_ns += r3 - r2;
      p.events += res.events;
      p.journal_records += res.trace.journal.records().size();
      add_round(p.digest, rc, res);
      p.metrics.merge(res.metrics);
      if (rc.detect) p.kept.push_back(std::move(res));
    } catch (const std::exception&) {
      ++p.digest.rounds;
      ++p.digest.failed_rounds;
      ++p.digest.anomalies;
    }
    ++p.rounds;
    if (spans != nullptr) {
      spans->push_back({"round", "unit", unit, i, r0, now_ns()});
    }
  }
  p.unit_ns = now_ns() - u0;
  if (spans != nullptr) {
    spans->push_back({"unit", "", unit, -1, u0, u0 + p.unit_ns});
  }
  return p;
}

/// Median wall of Vfs::reset, Vfs::audit and
/// programs::stage_background_tree on a standalone Vfs holding the
/// workload's staged tree.
struct VfsProbe {
  double stage_ms = 0.0;
  double audit_ms = 0.0;
  double reset_ms = 0.0;
};

VfsProbe vfs_probe(const core::ScenarioConfig& cfg, Ledger& ledger) {
  std::vector<double> stage, audit, reset;
  std::vector<std::string> problems;
  fs::Vfs vfs(cfg.profile.costs);
  for (int i = 0; i < kVfsProbeReps; ++i) {
    const std::int64_t t0 = now_ns();
    programs::stage_background_tree(vfs, cfg.background);
    const std::int64_t t1 = now_ns();
    const std::vector<std::string> violations = vfs.audit();
    const std::int64_t t2 = now_ns();
    vfs.reset(cfg.profile.costs);
    const std::int64_t t3 = now_ns();
    stage.push_back(secs(t1 - t0) * 1e3);
    audit.push_back(secs(t2 - t1) * 1e3);
    reset.push_back(secs(t3 - t2) * 1e3);
    for (const std::string& v : violations) problems.push_back(v);
  }
  ledger.record("standalone Vfs audit", problems);
  return {summarize(stage).median, summarize(audit).median,
          summarize(reset).median};
}

/// Median wall of a checkpoint fork (RoundRun copy) and of
/// RoundRun::hash_state, sampled along the canonical up/vi round with the
/// journal on, as the explorer runs its leaves.
struct ForkProbe {
  double fork_us = 0.0;
  double hash_us = 0.0;
};

ForkProbe fork_probe(std::uint64_t seed, Ledger& ledger) {
  std::vector<double> fork, hash;
  try {
    core::ScenarioConfig cfg = explore::canonical_explore_config(up_vi(seed));
    cfg.record_journal = true;
    core::RoundRun run(cfg);
    while (run.step()) {
      if (run.events_executed() % kForkSampleEvery != 0) continue;
      const std::int64_t t0 = now_ns();
      {
        const core::RoundRun child(run);
        fork.push_back(secs(now_ns() - t0) * 1e6);
      }
      StateHasher h;
      const std::int64_t t1 = now_ns();
      run.hash_state(h);
      hash.push_back(secs(now_ns() - t1) * 1e6);
    }
    ledger.record("fork/hash probe",
                  fork.empty() ? std::vector<std::string>{"no samples"}
                               : std::vector<std::string>{});
  } catch (const std::exception& e) {
    ledger.record("fork/hash probe", {e.what()});
  }
  return {summarize(fork).median, summarize(hash).median};
}

/// Re-runs the detector on every kept round; each report must equal the
/// round's own. Returns the mean analysis time in microseconds.
double reanalyze(const RoundPass& p, Ledger& ledger) {
  std::int64_t ns = 0;
  std::vector<std::string> problems;
  for (std::size_t i = 0; i < p.kept.size(); ++i) {
    const core::RoundResult& r = p.kept[i];
    const std::int64_t t0 = now_ns();
    const detect::DetectReport rep =
        detect::analyze_round(r.sync, r.trace.journal);
    ns += now_ns() - t0;
    if (report_key(rep) != report_key(r.detect)) {
      problems.push_back(strfmt("round %zu: re-analysis differs", i));
    }
  }
  ledger.record("detector re-analysis", problems);
  return ratio(static_cast<double>(ns) * 1e-3, static_cast<double>(p.kept.size()));
}

/// Traced passes over one set of rounds, each followed at once by the same
/// rounds with the detector flipped, so that both see the same host. The
/// per-layer times are medians over the passes; the counts come from the
/// first pass of each kind, since every pass must reproduce them.
class PassSeries {
 public:
  PassSeries(const core::ScenarioConfig& cfg, int count, bool journal,
             const CampaignDigest& want, Ledger& ledger)
      : cfg_(cfg), flip_cfg_(cfg), count_(count), journal_(journal),
        want_(want), ledger_(ledger) {
    flip_cfg_.detect = !cfg.detect;
  }

  /// Runs one pass and its flip; returns the traced pass's wall seconds.
  double run_pair(std::vector<Span>& spans) {
    RoundPass p = traced_rounds(cfg_, count_, journal_, pairs_, &spans);
    std::vector<std::string> problems = campaign_health(p.digest);
    if (!(p.digest == want_)) {
      problems.push_back("traced rounds differ from the untraced run: " +
                         describe(p.digest));
    }
    ledger_.record("traced rounds", problems);

    RoundPass f = traced_rounds(flip_cfg_, count_, journal_, pairs_, nullptr);
    problems = campaign_health(f.digest);
    if (!f.digest.same_simulation(want_)) {
      problems.push_back("detector flip changed the simulation: " +
                         describe(f.digest));
    }
    ledger_.record("detector-flipped rounds", problems);

    RoundPass& on = cfg_.detect ? p : f;
    const RoundPass& off = cfg_.detect ? f : p;
    setup_us_.push_back(p.per_round(secs(p.setup_ns) * 1e6));
    finish_us_.push_back(p.per_round(secs(p.finish_ns) * 1e6));
    event_ns_.push_back(p.event_ns());
    emit_ns_.push_back(on.event_ns() - off.event_ns());
    analyze_us_.push_back(reanalyze(on, ledger_));
    on.kept.clear();
    if (pairs_++ == 0) {
      first_ = p;
      first_on_ = on;
    }
    return secs(p.unit_ns);
  }

  const core::ScenarioConfig& config() const { return cfg_; }
  int pairs() const { return pairs_; }
  /// The first traced pass, and the first with the detector on.
  const RoundPass& first() const { return first_; }
  const RoundPass& first_on() const { return first_on_; }

  double setup_us() const { return summarize(setup_us_).median; }
  double finish_us() const { return summarize(finish_us_).median; }
  double event_ns() const { return summarize(event_ns_).median; }
  /// Median over the pairs of the per-event cost with the detector on
  /// minus the cost with it off.
  double emit_ns() const { return summarize(emit_ns_).median; }
  double analyze_us() const { return summarize(analyze_us_).median; }

 private:
  core::ScenarioConfig cfg_;
  core::ScenarioConfig flip_cfg_;
  int count_;
  bool journal_;
  CampaignDigest want_;
  Ledger& ledger_;
  int pairs_ = 0;
  RoundPass first_;
  RoundPass first_on_;
  std::vector<double> setup_us_, finish_us_, event_ns_, emit_ns_, analyze_us_;
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"parent\": \"%s\", \"unit\": %d, "
                 "\"id\": %d, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 s.name.c_str(), s.parent.c_str(), s.unit, s.round,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

int run_traced(Bench& b, double seconds, const std::string& spans_path) {
  const Workload& w = b.workload();
  Ledger& ledger = b.ledger();
  b.setup();
  const core::ScenarioConfig& cfg = b.config();

  // Untraced units give the result the traced run must reproduce and the
  // wall time the tracing overhead is measured against.
  std::vector<double> plain;
  std::vector<Span> spans;
  std::vector<double> traced;
  std::optional<explore::ExploreResult> sweep;
  std::optional<PassSeries> passes;
  if (w.kind == Kind::campaign) {
    // Untraced units alternate with traced pairs, so that all of them see
    // the same host conditions.
    const std::int64_t deadline = deadline_after(seconds / 2.0);
    do {
      plain.push_back(b.unit());
      if (!passes) {
        passes.emplace(cfg, w.rounds, false,
                       b.first_campaign().value_or(CampaignDigest{}), ledger);
      }
      traced.push_back(passes->run_pair(spans));
    } while (now_ns() < deadline);
  } else {
    // The sweep is timed from outside, alternating with untraced units;
    // its layers report through ExploreResult. Core and below are traced
    // on rounds like the sweep's leaves: the canonical config with the
    // journal on.
    const std::int64_t deadline = deadline_after(seconds / 4.0);
    do {
      plain.push_back(b.unit());
      const std::int64_t t0 = now_ns();
      explore::ExploreResult r = explore::explore(cfg, sweep_config(kSweepBound));
      const std::int64_t t1 = now_ns();
      spans.push_back(
          {"explore.sweep", "", static_cast<int>(traced.size()), -1, t0, t1});
      traced.push_back(secs(t1 - t0));
      std::vector<std::string> problems = explore_health(r);
      if (!b.first_sweep() ||
          explore_digest(r) != explore_digest(*b.first_sweep())) {
        problems.push_back("traced sweep differs from the untraced run");
      }
      ledger.record("traced sweep", problems);
      if (!sweep) sweep = std::move(r);
    } while (now_ns() < deadline);
    const core::ScenarioConfig round_cfg =
        explore::canonical_explore_config(cfg);
    passes.emplace(round_cfg, kExploreTracedRounds, true,
                   digest_of(core::run_campaign(round_cfg,
                                                kExploreTracedRounds, true, 1)),
                   ledger);
    const std::int64_t passes_end = deadline_after(seconds / 4.0);
    do {
      passes->run_pair(spans);
    } while (now_ns() < passes_end);
  }
  const RoundPass& pass = passes->first();
  const RoundPass& on = passes->first_on();

  const VfsProbe vp = vfs_probe(cfg, ledger);
  const ForkProbe fp = fork_probe(b.seed(), ledger);
  double sweep_s = summarize(traced).median;
  if (!sweep) {
    // Campaigns run no sweep of their own; the explore layer is measured
    // on the reference scenario's set-up sweep.
    const std::int64_t t0 = now_ns();
    sweep = explore::explore(up_vi(b.seed()), sweep_config(0));
    sweep_s = secs(now_ns() - t0);
    ledger.record("probe sweep", explore_health(*sweep));
  }

  const double coverage = span_coverage(spans);
  if (w.kind == Kind::campaign) {
    ledger.record("span coverage",
                  coverage < 0.9 ? std::vector<std::string>{strfmt(
                                       "coverage %.3f below 0.9", coverage)}
                                 : std::vector<std::string>{});
  }
  write_spans(spans_path, spans);

  const Summary sp = summarize(plain);
  const Summary st = summarize(traced);
  const metrics::Histogram* walk =
      pass.metrics.histogram("fs.path_walk_components");
  const metrics::Histogram* sem = pass.metrics.histogram("fs.sem_wait_ns");
  const metrics::Registry& em = sweep->metrics;
  const auto ec = [&em](const char* name) {
    return static_cast<double>(em.counter(name));
  };
  const double leaves = ec("explore.leaves_executed");

  const std::vector<Metric> m = {
      {"core.round_setup_us", passes->setup_us(), "us"},
      {"core.round_finish_us", passes->finish_us(), "us"},
      {"core.span_coverage", coverage, "ratio"},
      {"sim.event_ns", passes->event_ns(), "ns"},
      {"sim.events_per_round", pass.per_round(static_cast<double>(pass.events)),
       "count"},
      {"sim.syscalls_per_round", pass.counter_per_round("kernel.syscalls"),
       "count"},
      {"sim.spawns_per_round", pass.counter_per_round("kernel.spawns"), "count"},
      {"sched.context_switches_per_round",
       pass.counter_per_round("sched.context_switches"), "count"},
      {"sched.preemptions_per_round",
       pass.counter_per_round("sched.preemptions"), "count"},
      {"sched.steals_per_round", pass.counter_per_round("sched.steals"),
       "count"},
      {"sched.runqueue_depth_max",
       static_cast<double>(pass.metrics.gauge("sched.runqueue_depth_max")),
       "count"},
      {"fs.path_walk_components_per_round",
       pass.per_round(walk ? static_cast<double>(walk->sum()) : 0.0), "count"},
      {"fs.sem_waits_per_round",
       pass.per_round(sem ? static_cast<double>(sem->count()) : 0.0), "count"},
      {"fs.reset_ms", vp.reset_ms, "ms"},
      {"fs.audit_ms", vp.audit_ms, "ms"},
      {"programs.stage_tree_ms", vp.stage_ms, "ms"},
      {"trace.journal_records_per_round",
       pass.per_round(static_cast<double>(pass.journal_records)), "count"},
      {"detect.analyze_us", passes->analyze_us(), "us"},
      {"detect.emit_ns_per_event", passes->emit_ns(), "ns"},
      {"detect.sync_events_per_round", on.counter_per_round("detect.sync_events"),
       "count"},
      {"detect.flagged_share", on.counter_per_round("detect.rounds_flagged"),
       "ratio"},
      {"explore.sweep_s", sweep_s, "s"},
      {"explore.schedules", static_cast<double>(sweep->schedules), "count"},
      {"explore.rounds_executed", static_cast<double>(sweep->rounds_executed),
       "count"},
      {"explore.leaves_executed", leaves, "count"},
      {"explore.executed_share",
       ratio(leaves, static_cast<double>(sweep->schedules)), "ratio"},
      {"explore.forks", ec("explore.forks"), "count"},
      {"explore.checkpoints", ec("explore.checkpoints"), "count"},
      {"explore.cache_hits", ec("explore.cache_hits"), "count"},
      {"explore.hash_merges", ec("explore.hash_merges"), "count"},
      {"explore.dpor_pruned", ec("explore.dpor_pruned"), "count"},
      {"explore.degraded_groups", ec("explore.degraded_groups"), "count"},
      {"explore.fork_us", fp.fork_us, "us"},
      {"explore.hash_us", fp.hash_us, "us"},
      {"bench.trace_overhead", ratio(st.median, sp.median) - 1.0, "ratio"},
  };

  std::printf("perfbench %s seed=%llu trace=1 hardware_threads=%u\n", w.name,
              static_cast<unsigned long long>(b.seed()),
              std::thread::hardware_concurrency());
  std::printf(
      "  traced %zu units against %zu untraced (median %.6f vs %.6f s); "
      "%d pairs of %d-round passes, %s\n",
      st.n, sp.n, st.median, sp.median, passes->pairs(), pass.rounds,
      passes->config().detect ? "detector on (flip pass off)"
                              : "detector off (flip pass on)");
  const double unit_ms = secs(pass.unit_ns) * 1e3;
  std::printf(
      "  self time of the first traced pass: staging %.3f ms, stepping "
      "%.3f ms, judging %.3f ms, bookkeeping %.3f ms of %.3f ms\n",
      secs(pass.setup_ns) * 1e3, secs(pass.steps_ns) * 1e3,
      secs(pass.finish_ns) * 1e3,
      unit_ms - secs(pass.setup_ns + pass.steps_ns + pass.finish_ns) * 1e3,
      unit_ms);
  for (const Metric& x : m) {
    std::printf("  %-34s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  print_simulated(b);
  print_checks(ledger);
  print_json(ledger, m);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string name;
  std::string spans;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      name = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--spans" && has_value) {
      spans = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* w = find_workload(name);
  if (w == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  Bench b(*w, seed);
  return trace == 0 ? run_untraced(b, seconds) : run_traced(b, seconds, spans);
}
