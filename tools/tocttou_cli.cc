// tocttou — command-line driver for the attack simulator.
//
// Runs any scenario from flags: single traced rounds with a Gantt
// timeline and CSV dumps, or multi-round campaigns with success rates
// and L/D statistics. Examples:
//
//   tocttou --testbed=smp --victim=vi --file-kb=100 --rounds=200
//   tocttou --testbed=multicore --victim=gedit --attacker=prefaulted
//           --rounds=300 --measure-ld            (one line)
//   tocttou --testbed=smp --victim=gedit --gantt --seed=3
//   tocttou --testbed=smp --victim=vi --defended --rounds=100
//   tocttou --testbed=up --victim=vi --file-kb=1000 --journal-csv=out.csv
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "tocttou/core/harness.h"
#include "tocttou/core/model.h"
#include "tocttou/core/pairs.h"
#include "tocttou/detect/cross_check.h"
#include "tocttou/detect/detector.h"
#include "tocttou/explore/explorer.h"
#include "tocttou/explore/replay.h"
#include "tocttou/explore/token.h"
#include "tocttou/sim/faults.h"
#include "tocttou/trace/trace.h"

namespace {

using namespace tocttou;

// Exit codes (see usage text): distinct so scripts can tell a typo'd
// flag from a failed write from an interrupted sweep.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;          // bad flags or invalid input
constexpr int kExitAttackFailed = 2;   // single round ran; attack lost
constexpr int kExitIo = 3;             // file/journal write or open error
constexpr int kExitInterrupted = 4;    // sweep stopped by signal/deadline
constexpr int kExitSimError = 5;       // simulation threw (single round)

/// Graceful-stop flag for long sweeps: SIGINT/SIGTERM set it, the
/// explorer polls it between reduction batches, flushes the progress
/// journal, and returns a valid partial result.
volatile std::sig_atomic_t g_stop = 0;

void on_stop_signal(int) { g_stop = 1; }

[[noreturn]] void usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: tocttou [options]\n"
      "  --testbed=up|smp|multicore   machine profile (default smp)\n"
      "  --victim=vi|gedit|suspending|sendmail   (default vi)\n"
      "  --attacker=naive|prefaulted|pipelined|none   (default naive)\n"
      "  --file-kb=N | --file-bytes=N   file size (default 100KB)\n"
      "  --rounds=N                   campaign rounds (default 100)\n"
      "  --jobs=N                     campaign worker threads (default: all\n"
      "                               cores; 1 = serial; results are\n"
      "                               identical at any job count)\n"
      "  --seed=N                     base seed (default 1)\n"
      "  --timeslice-ms=N             override the scheduler quantum\n"
      "                               (default: testbed profile, 100ms)\n"
      "  --faults=SPEC[,SPEC...]      deterministic fault plan, e.g.\n"
      "                               error:0.01:errno=eintr:op=rename\n"
      "                               (kinds: error, spike, wakeup-delay,\n"
      "                               wakeup-drop, kill)\n"
      "  --defended                   victim uses fchown/fchmod (Sec. 8)\n"
      "  --no-background              disable kernel-thread load\n"
      "  --background=SPEC            multi-tenant background workload:\n"
      "                               k=v list with keys web, cron, build,\n"
      "                               log (tenant counts), intensity (work\n"
      "                               multiplier), docroot (shared files),\n"
      "                               inodes (pre-staged tree size), or\n"
      "                               procs=N for a mixed fleet — e.g.\n"
      "                               procs=256,intensity=2,inodes=100000.\n"
      "                               Deterministic: byte-identical at any\n"
      "                               --jobs\n"
      "  --measure-ld                 record journals; report L and D\n"
      "  --explore=exhaustive|pct     enumerate the schedule space instead\n"
      "                               of sampling it (noise/background off)\n"
      "  --explore-buckets=N          think-time quantization (default 64)\n"
      "  --explore-bound=N            max preemption bound: enumerate the\n"
      "                               schedules with 0..N divergences from\n"
      "                               policy; -1 = until the space is\n"
      "                               complete or --explore-max runs out\n"
      "                               (default 2)\n"
      "  --explore-max=N              schedule cap (default 200000); also\n"
      "                               the budget for \"rounds executed\",\n"
      "                               the schedules within each bound\n"
      "                               reached, summed over those bounds\n"
      "  --explore-jobs=N             exploration worker threads (default:\n"
      "                               $TOCTTOU_JOBS, else all cores; 1 =\n"
      "                               serial; results are bit-identical at\n"
      "                               any job count)\n"
      "  --explore-checkpoint=on|off  fork leaves from a checkpoint of\n"
      "                               their parent instead of replaying\n"
      "                               the shared prefix (default on; at\n"
      "                               most 512 checkpoints live at once;\n"
      "                               results are bit-identical either\n"
      "                               way)\n"
      "  --explore-state-hash=on|off  merge schedules whose canonical\n"
      "                               128-bit state digest was already\n"
      "                               reached instead of re-executing the\n"
      "                               tail (default on; needs checkpoints;\n"
      "                               results are bit-identical either\n"
      "                               way — only explore.hash_merges and\n"
      "                               throughput move; bad value exits 1)\n"
      "  --progress=FILE              journal completed batches to FILE\n"
      "                               so a killed sweep can resume\n"
      "  --resume=FILE                resume a sweep from FILE (missing\n"
      "                               file starts fresh); the final\n"
      "                               report is byte-identical to an\n"
      "                               uninterrupted run\n"
      "  --deadline-s=N               stop an exploration gracefully\n"
      "                               after ~N seconds (partial result +\n"
      "                               resume checkpoint; exit code 4)\n"
      "  --step-budget=N              per-round kernel event budget: a\n"
      "                               livelocked round is cut off and\n"
      "                               reported instead of hanging\n"
      "                               (default 100000000; 0 = unlimited)\n"
      "  --pct-depth=N                PCT bug depth d (default 3)\n"
      "  --pct-schedules=N            PCT schedules to run (default 1000)\n"
      "  --replay=TOKEN               re-run one recorded schedule token\n"
      "                               (combine with --gantt/--journal-csv)\n"
      "  --gantt                      run ONE round and print the timeline\n"
      "  --journal-csv=PATH           dump one round's syscall journal\n"
      "  --events-csv=PATH            dump one round's event log\n"
      "  --metrics[=PATH]             collect kernel/sched/fs metrics and\n"
      "                               print JSON (or write it to PATH);\n"
      "                               bit-identical at any --jobs\n"
      "  --metrics-csv=PATH           same snapshot as RFC-4180 CSV\n"
      "  --interference               report detected cross-process races\n"
      "  --detect[=csv:FILE]          run the happens-before race detector:\n"
      "                               vector clocks over the kernel's sync\n"
      "                               edges flag <check,use> windows\n"
      "                               concurrent with attacker mutations.\n"
      "                               Campaign/round output gains a detect:\n"
      "                               line; csv:FILE dumps the findings\n"
      "                               (byte-identical at any --jobs). With\n"
      "                               --explore=exhaustive: cross-validate\n"
      "                               flagged pairs against the schedules\n"
      "                               where the attack provably lands\n"
      "  --help\n"
      "exit codes: 0 ok; 1 usage or invalid input; 2 single round ran\n"
      "  and the attack failed; 3 file or journal I/O error; 4 sweep\n"
      "  interrupted (signal or --deadline-s); 5 simulation error\n");
  std::exit(code);
}

bool take(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

[[noreturn]] void bad_value(const char* flag, const std::string& v,
                            const char* want) {
  std::fprintf(stderr, "tocttou: invalid value for %s: '%s' (expected %s)\n",
               flag, v.c_str(), want);
  std::exit(1);
}

/// Strict integer parsing: the whole string must be a number in range.
/// atoi/strtoull silently turn "abc" into 0 and "12x" into 12 — a typo'd
/// --rounds=1OO would quietly run a zero-round campaign.
long long parse_int(const char* flag, const std::string& v, long long lo,
                    long long hi) {
  const char* s = v.c_str();
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(s, &end, 10);
  if (v.empty() || end != s + v.size() || errno == ERANGE) {
    bad_value(flag, v, "an integer");
  }
  if (n < lo || n > hi) {
    std::fprintf(stderr,
                 "tocttou: %s=%lld out of range (must be %lld..%lld)\n", flag,
                 n, lo, hi);
    std::exit(1);
  }
  return n;
}

std::uint64_t parse_u64(const char* flag, const std::string& v) {
  const char* s = v.c_str();
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(s, &end, 10);
  if (v.empty() || v[0] == '-' || end != s + v.size() || errno == ERANGE) {
    bad_value(flag, v, "an unsigned integer");
  }
  return static_cast<std::uint64_t>(n);
}

/// Writes `body` to `path` or exits with the I/O error code. The flush
/// + good() check matters: operator<< on a full disk can fail silently
/// and the stream destructor swallows the error, so without it the tool
/// would print "wrote ..." for a truncated file and exit 0.
void write_file_or_die(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "tocttou: cannot open %s for writing\n",
                 path.c_str());
    std::exit(kExitIo);
  }
  f << body;
  f.flush();
  if (!f.good()) {
    std::fprintf(stderr, "tocttou: write to %s failed (disk full?)\n",
                 path.c_str());
    std::exit(kExitIo);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), body.size());
}

/// Emits the collected snapshot per the --metrics/--metrics-csv flags.
void export_metrics(const metrics::Registry& reg, bool json_on,
                    const std::string& json_path,
                    const std::string& csv_path) {
  if (json_on) {
    if (json_path.empty()) {
      std::printf("%s", reg.to_json().c_str());
    } else {
      write_file_or_die(json_path, reg.to_json());
    }
  }
  if (!csv_path.empty()) write_file_or_die(csv_path, reg.to_csv());
}

}  // namespace

int main(int argc, char** argv) {
  core::ScenarioConfig cfg;
  cfg.profile = programs::testbed_smp_dual_xeon();
  int rounds = 100;
  int jobs = 0;  // <= 0: one worker per hardware thread
  bool measure_ld = false, gantt = false, interference = false;
  std::string journal_csv, events_csv;
  bool do_explore = false;
  explore::ExploreConfig ecfg;
  int explore_jobs = 0;
  bool explore_jobs_set = false;
  std::string replay_text;
  std::optional<Duration> timeslice_override;
  bool metrics_json = false;
  std::string metrics_json_path, metrics_csv_path;
  bool detect_on = false;
  std::string detect_csv;
  int deadline_s = 0;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--help") == 0) usage(0);
    if (take(argv[i], "--testbed", &v)) {
      if (v == "up" || v == "uniprocessor") {
        cfg.profile = programs::testbed_uniprocessor_xeon();
      } else if (v == "smp") {
        cfg.profile = programs::testbed_smp_dual_xeon();
      } else if (v == "multicore" || v == "mc") {
        cfg.profile = programs::testbed_multicore_pentium_d();
      } else {
        usage(1);
      }
    } else if (take(argv[i], "--victim", &v)) {
      if (v == "vi") cfg.victim = core::VictimKind::vi;
      else if (v == "gedit") cfg.victim = core::VictimKind::gedit;
      else if (v == "suspending") cfg.victim = core::VictimKind::suspending;
      else if (v == "sendmail") cfg.victim = core::VictimKind::sendmail;
      else usage(1);
    } else if (take(argv[i], "--attacker", &v)) {
      if (v == "naive") cfg.attacker = core::AttackerKind::naive;
      else if (v == "prefaulted") cfg.attacker = core::AttackerKind::prefaulted;
      else if (v == "pipelined") cfg.attacker = core::AttackerKind::pipelined;
      else if (v == "none") cfg.attacker = core::AttackerKind::none;
      else usage(1);
    } else if (take(argv[i], "--file-kb", &v)) {
      cfg.file_bytes = parse_u64("--file-kb", v) * 1024;
    } else if (take(argv[i], "--file-bytes", &v)) {
      cfg.file_bytes = parse_u64("--file-bytes", v);
    } else if (take(argv[i], "--rounds", &v)) {
      rounds = static_cast<int>(parse_int("--rounds", v, 1, 100000000));
    } else if (take(argv[i], "--jobs", &v)) {
      // <= 0 means "one worker per hardware thread", so any integer is
      // acceptable — but it must BE an integer.
      jobs = static_cast<int>(parse_int("--jobs", v, -1000000, 1000000));
    } else if (take(argv[i], "--seed", &v)) {
      cfg.seed = parse_u64("--seed", v);
    } else if (take(argv[i], "--timeslice-ms", &v)) {
      // Applied after the loop so it wins regardless of flag order
      // relative to --testbed (which replaces the whole profile).
      timeslice_override =
          Duration::millis(parse_int("--timeslice-ms", v, 1, 100000));
    } else if (take(argv[i], "--faults", &v)) {
      std::string err;
      if (!sim::FaultPlan::parse(v, &cfg.faults, &err)) {
        std::fprintf(stderr, "tocttou: bad --faults spec: %s\n", err.c_str());
        std::exit(1);
      }
    } else if (take(argv[i], "--background", &v)) {
      std::string err;
      if (!programs::BackgroundSpec::parse(v, &cfg.background, &err)) {
        std::fprintf(stderr, "tocttou: bad --background spec: %s\n",
                     err.c_str());
        std::exit(1);
      }
    } else if (take(argv[i], "--explore", &v)) {
      do_explore = true;
      if (v == "exhaustive") ecfg.mode = explore::ExploreMode::exhaustive;
      else if (v == "pct") ecfg.mode = explore::ExploreMode::pct;
      else bad_value("--explore", v, "exhaustive or pct");
    } else if (take(argv[i], "--explore-buckets", &v)) {
      ecfg.think_buckets =
          static_cast<int>(parse_int("--explore-buckets", v, 1, 1000000));
    } else if (take(argv[i], "--explore-bound", &v)) {
      ecfg.preemption_bound =
          static_cast<int>(parse_int("--explore-bound", v, -1, 64));
    } else if (take(argv[i], "--explore-max", &v)) {
      ecfg.max_schedules =
          static_cast<int>(parse_int("--explore-max", v, 1, 100000000));
    } else if (take(argv[i], "--explore-jobs", &v)) {
      explore_jobs =
          static_cast<int>(parse_int("--explore-jobs", v, -1000000, 1000000));
      explore_jobs_set = true;
    } else if (take(argv[i], "--explore-checkpoint", &v)) {
      if (v == "on") ecfg.checkpoint = true;
      else if (v == "off") ecfg.checkpoint = false;
      else bad_value("--explore-checkpoint", v, "on or off");
    } else if (take(argv[i], "--explore-state-hash", &v)) {
      if (v == "on") ecfg.state_hash = true;
      else if (v == "off") ecfg.state_hash = false;
      else bad_value("--explore-state-hash", v, "on or off");
    } else if (take(argv[i], "--progress", &v)) {
      ecfg.journal_path = v;
      ecfg.resume = false;
    } else if (take(argv[i], "--resume", &v)) {
      ecfg.journal_path = v;
      ecfg.resume = true;
    } else if (take(argv[i], "--deadline-s", &v)) {
      deadline_s = static_cast<int>(parse_int("--deadline-s", v, 1,
                                              1000000000));
    } else if (take(argv[i], "--step-budget", &v)) {
      cfg.step_budget = parse_u64("--step-budget", v);
    } else if (take(argv[i], "--pct-depth", &v)) {
      ecfg.pct_depth = static_cast<int>(parse_int("--pct-depth", v, 1, 64));
    } else if (take(argv[i], "--pct-schedules", &v)) {
      ecfg.pct_schedules =
          static_cast<int>(parse_int("--pct-schedules", v, 1, 100000000));
    } else if (take(argv[i], "--replay", &v)) {
      replay_text = v;
    } else if (take(argv[i], "--journal-csv", &v)) {
      journal_csv = v;
    } else if (take(argv[i], "--events-csv", &v)) {
      events_csv = v;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_json = true;
    } else if (take(argv[i], "--metrics", &v)) {
      metrics_json = true;
      metrics_json_path = v;
    } else if (take(argv[i], "--metrics-csv", &v)) {
      metrics_csv_path = v;
    } else if (std::strcmp(argv[i], "--detect") == 0) {
      detect_on = true;
    } else if (take(argv[i], "--detect", &v)) {
      detect_on = true;
      if (v.rfind("csv:", 0) == 0 && v.size() > 4) {
        detect_csv = v.substr(4);
      } else {
        bad_value("--detect", v, "csv:FILE");
      }
    } else if (std::strcmp(argv[i], "--defended") == 0) {
      cfg.defended_victim = true;
    } else if (std::strcmp(argv[i], "--no-background") == 0) {
      cfg.background_load = false;
    } else if (std::strcmp(argv[i], "--measure-ld") == 0) {
      measure_ld = true;
    } else if (std::strcmp(argv[i], "--gantt") == 0) {
      gantt = true;
    } else if (std::strcmp(argv[i], "--interference") == 0) {
      interference = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(1);
    }
  }
  if (timeslice_override) {
    cfg.profile.machine.timeslice = *timeslice_override;
  }
  cfg.collect_metrics = metrics_json || !metrics_csv_path.empty();

  std::printf("testbed=%s victim=%s attacker=%s file=%lluB seed=%llu%s\n",
              cfg.profile.name.c_str(), core::to_string(cfg.victim),
              core::to_string(cfg.attacker),
              static_cast<unsigned long long>(cfg.file_bytes),
              static_cast<unsigned long long>(cfg.seed),
              cfg.defended_victim ? " [defended]" : "");
  if (!cfg.faults.empty()) {
    std::printf("faults: %s\n", cfg.faults.describe().c_str());
  }
  if (!cfg.background.empty()) {
    std::printf("background: %s (%d tenant processes)\n",
                cfg.background.describe().c_str(),
                cfg.background.total_processes());
  }

  if (do_explore) {
    ecfg.pct_seed = cfg.seed;
    // Worker count: --explore-jobs wins, then $TOCTTOU_JOBS, then all
    // hardware threads (explore() resolves <= 0 itself). Results are
    // bit-identical whichever applies.
    if (explore_jobs_set) {
      ecfg.jobs = explore_jobs;
    } else if (const char* env = std::getenv("TOCTTOU_JOBS")) {
      ecfg.jobs =
          static_cast<int>(parse_int("TOCTTOU_JOBS", env, -1000000, 1000000));
    } else {
      ecfg.jobs = 0;
    }
    // Graceful interruption: SIGINT/SIGTERM (or the deadline) stop the
    // sweep between batches with a valid partial result; with
    // --progress the journal resumes exactly there. Wall-clock time
    // stays here in the CLI — the explorer itself never reads a clock,
    // so WHAT it computes remains deterministic; the stop only decides
    // where the canonical reduction pauses.
    std::signal(SIGINT, on_stop_signal);
    std::signal(SIGTERM, on_stop_signal);
    std::optional<std::chrono::steady_clock::time_point> deadline_at;
    if (deadline_s > 0) {
      deadline_at = std::chrono::steady_clock::now() +
                    std::chrono::seconds(deadline_s);
    }
    ecfg.should_stop = [deadline_at] {
      if (g_stop != 0) return true;
      return deadline_at &&
             std::chrono::steady_clock::now() >= *deadline_at;
    };
    if (detect_on && ecfg.mode != explore::ExploreMode::exhaustive) {
      std::fprintf(stderr,
                   "tocttou: --detect cross-validation needs "
                   "--explore=exhaustive (pct samples schedules, so "
                   "\"every landing schedule is flagged\" is unprovable)\n");
      return kExitUsage;
    }
    std::optional<detect::CrossCheckResult> cc;
    explore::ExploreResult res;
    if (detect_on) {
      // Re-run every exhaustive leaf with the detector attached and
      // cross-validate: landed schedules must be flagged, flagged-but-
      // never-landing pairs get a happens-before justification.
      cc = detect::cross_check(cfg, ecfg);
      res = std::move(cc->explore);
    } else {
      res = explore::explore(cfg, ecfg);
    }
    if (!res.journal_error.empty() && res.schedules == 0 &&
        res.rounds_executed == 0) {
      // The journal could not be created or resumed; nothing ran.
      std::fprintf(stderr, "tocttou: sweep journal: %s\n",
                   res.journal_error.c_str());
      return kExitIo;
    }
    if (res.journal_leaves_loaded > 0) {
      std::fprintf(stderr, "tocttou: resumed %d journaled leaves from %s\n",
                   res.journal_leaves_loaded, ecfg.journal_path.c_str());
    }
    if (res.mode == explore::ExploreMode::exhaustive) {
      std::printf("explore: mode=exhaustive buckets=%d bound=%d%s\n",
                  ecfg.think_buckets, res.bound_reached,
                  res.interrupted             ? " [interrupted]"
                  : !res.complete             ? " [truncated]"
                  : res.bound_cutoffs == 0    ? " [complete: full space]"
                                              : " [complete at this bound]");
      std::printf(
          "explore: %d schedules (%d policy, %llu sleep-set-pruned, "
          "%llu bound-cutoffs, %d rounds executed)\n",
          res.schedules, res.policy_schedules,
          static_cast<unsigned long long>(res.pruned_by_sleep_set),
          static_cast<unsigned long long>(res.bound_cutoffs),
          res.rounds_executed);
      std::printf("exact: p(success) = %.6f over mass %.6f "
                  "(%d succeeding schedules)\n",
                  res.exact_success, res.total_mass, res.successes);
    } else {
      std::printf("explore: mode=pct depth=%d schedules=%d\n", ecfg.pct_depth,
                  res.schedules);
      std::printf("pct: %d/%d schedules hit", res.successes, res.schedules);
      if (res.pct_procs > 0) {
        // Bound undefined when no pick/preempt site was ever reached
        // (placement-only schedules carry no PCT priority semantics).
        std::printf("; per-schedule bound 1/(n*k^(d-1)) = %.2e (n=%d, k=%d)",
                    res.pct_bound, res.pct_procs, res.pct_max_steps);
      }
      std::printf("\n");
    }
    if (res.witness) {
      std::printf("witness: %s", res.witness->serialize().c_str());
      if (res.witness_divergences >= 0) {
        std::printf(" (divergences=%d)", res.witness_divergences);
      }
      std::printf("\n");
      std::printf("first hit: schedule %d\n", res.schedules_to_first_hit);
    }
    if (res.divergence_errors > 0) {
      std::printf("WARNING: %d schedules diverged from their forced prefix\n",
                  res.divergence_errors);
    }
    // Quarantined schedules (a leaf threw twice — livelock watchdog,
    // allocation failure, or a simulator invariant): counted, excluded
    // from the probability mass, and reproducible standalone. The
    // capped token list is canonical, so these lines are jobs-invariant.
    if (res.quarantined > 0) {
      std::printf("quarantined: %d schedules excluded from the mass\n",
                  res.quarantined);
      for (const auto& q : res.quarantine) {
        std::printf("quarantine: kind=%s", explore::to_string(q.kind));
        if (q.divergences >= 0) {
          std::printf(" (divergences=%d)", q.divergences);
        }
        std::printf(" rerun with --replay=%s\n", q.token.c_str());
      }
    }
    if (cc) {
      std::printf("detect: %s\n", cc->report.summary().c_str());
      std::printf("cross-check: %s\n", cc->summary().c_str());
      for (const std::string& t : cc->violations) {
        std::printf("VIOLATION: landed but unflagged; rerun with --replay=%s\n",
                    t.c_str());
      }
      if (!detect_csv.empty()) {
        write_file_or_die(detect_csv, cc->report.to_csv());
      }
    }
    if (res.interrupted) {
      if (!ecfg.journal_path.empty()) {
        std::fprintf(stderr,
                     "tocttou: sweep interrupted; resume with --resume=%s\n",
                     ecfg.journal_path.c_str());
      } else {
        std::fprintf(stderr,
                     "tocttou: sweep interrupted (no --progress journal; a "
                     "rerun starts from scratch)\n");
      }
      if (metrics_json || !metrics_csv_path.empty()) {
        export_metrics(res.metrics, metrics_json, metrics_json_path,
                       metrics_csv_path);
      }
      return kExitInterrupted;
    }
    // Monte Carlo cross-check on the same deterministic config the
    // explorer ran under (think time back to its continuous draw).
    const auto mc_cfg = explore::canonical_explore_config(cfg);
    const auto mc = core::run_campaign(mc_cfg, rounds, false, jobs);
    std::printf("monte-carlo: %s (canonical config, %d rounds)\n",
                mc.summary().c_str(), rounds);
    if (cfg.profile.machine.n_cpus == 1 && !res.window_us.empty()) {
      const double p = core::p_suspended_timeslice(
          Duration::micros_f(res.window_us.mean()),
          cfg.profile.machine.timeslice);
      std::printf("equation1: W=%.1fus q=%.0fus -> p = W/q = %.6f\n",
                  res.window_us.mean(), cfg.profile.machine.timeslice.us(), p);
    }
    // Exploration throughput counters (explore.leaves / explore.steals /
    // explore.ctx_reuses) ride the standard metrics export flags.
    if (metrics_json || !metrics_csv_path.empty()) {
      export_metrics(res.metrics, metrics_json, metrics_json_path,
                     metrics_csv_path);
    }
    if (!res.journal_error.empty()) {
      // The sweep finished but the journal stopped being writable
      // mid-way: the report above is valid, resumability is not.
      std::fprintf(stderr, "tocttou: sweep journal: %s\n",
                   res.journal_error.c_str());
      return kExitIo;
    }
    return kExitOk;
  }

  cfg.detect = detect_on;
  const bool single_round = gantt || interference || !journal_csv.empty() ||
                            !events_csv.empty() || !replay_text.empty();
  if (single_round) {
    cfg.record_journal = true;
    cfg.record_events = gantt || !events_csv.empty();
    core::RoundResult r;
    // A single round runs unshielded (no campaign run_block, no explorer
    // quarantine), so a simulator throw — the livelock watchdog tripping
    // on a quarantined schedule's replay, most likely — surfaces here.
    try {
      if (!replay_text.empty()) {
        explore::ScheduleToken tok;
        std::string err;
        if (!explore::ScheduleToken::parse(replay_text, &tok, &err)) {
          std::fprintf(stderr, "tocttou: bad --replay token: %s\n",
                       err.c_str());
          return kExitUsage;
        }
        if (!explore::replay_token(cfg, tok, &r, &err)) {
          std::fprintf(stderr, "tocttou: replay failed: %s\n", err.c_str());
          return kExitUsage;
        }
        std::printf("replay: seed=%llu, %zu forced choices\n",
                    static_cast<unsigned long long>(tok.seed),
                    tok.choices.size());
      } else {
        r = core::run_round(cfg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tocttou: simulation error: %s\n", e.what());
      return kExitSimError;
    }
    std::printf("round: %s (victim %s, attacker %s, %llu events)\n",
                r.success ? "ATTACK SUCCEEDED" : "attack failed",
                r.victim_completed ? "completed" : "timed out",
                r.attacker_finished ? "finished" : "still polling",
                static_cast<unsigned long long>(r.events));
    if (r.window && r.window->window_found) {
      std::printf("window: %.1fus", r.window->victim_window().us());
      if (r.window->laxity && r.window->d) {
        std::printf("; L=%.1fus D=%.1fus -> formula(1) %.0f%%",
                    r.window->laxity->us(), r.window->d->us(),
                    *r.window->predicted_rate() * 100.0);
      }
      std::printf("\n");
    }
    if (gantt && r.window && r.window->window_found) {
      trace::GanttOptions opts;
      opts.width = 110;
      opts.from = r.window->window_open - Duration::micros(50);
      opts.to = r.window->t3 + Duration::micros(60);
      std::printf("%s", trace::render_gantt(r.trace.log, opts).c_str());
    } else if (gantt) {
      std::printf("%s", trace::render_gantt(r.trace.log, {}).c_str());
    }
    if (interference) {
      const auto hits =
          core::find_interference(r.trace.journal, r.victim_pid);
      std::printf("interference events inside the victim's windows: %zu\n",
                  hits.size());
      for (const auto& h : hits) {
        std::printf("  t=%.1fus pid%u %s on %s inside <%s,%s>\n", h.at.us(),
                    h.intruder, h.intruder_call.c_str(),
                    h.window.path.c_str(), h.window.check_call.c_str(),
                    h.window.use_call.c_str());
      }
    }
    if (detect_on) {
      std::printf("detect: %s\n", r.detect.summary().c_str());
      for (const auto& f : r.detect.findings) {
        std::printf("  race <%s,%s> on %s: pid%u %s at %.1fus -- %s\n",
                    f.check_call.c_str(), f.use_call.c_str(), f.path.c_str(),
                    f.mutator, f.mutator_call.c_str(), f.mutation_enter.us(),
                    f.justification().c_str());
      }
      if (!detect_csv.empty()) {
        write_file_or_die(detect_csv, r.detect.to_csv());
      }
    }
    if (!journal_csv.empty()) {
      write_file_or_die(journal_csv, r.trace.journal.to_csv());
    }
    if (!events_csv.empty()) {
      write_file_or_die(events_csv, r.trace.log.to_csv());
    }
    if (cfg.collect_metrics) {
      export_metrics(r.metrics, metrics_json, metrics_json_path,
                     metrics_csv_path);
    }
    return r.success ? kExitOk : kExitAttackFailed;
  }

  const auto stats = core::run_campaign(cfg, rounds, measure_ld, jobs);
  std::printf("campaign: %s\n", stats.summary().c_str());
  // Anomalous rounds (crashes, time-limit hits, stalls) carry replay
  // tokens; healthy campaigns print nothing extra here.
  for (const std::string& t : stats.anomaly_tokens) {
    std::printf("anomaly: rerun with --replay=%s\n", t.c_str());
  }
  if (detect_on) {
    std::printf("detect: %s\n", stats.detect.summary().c_str());
    if (!detect_csv.empty()) {
      write_file_or_die(detect_csv, stats.detect.to_csv());
    }
  }
  if (measure_ld && !stats.laxity_us.empty() && !stats.detection_us.empty()) {
    const double pred = core::laxity_success_rate(
        Duration::micros_f(stats.laxity_us.mean()),
        Duration::micros_f(stats.detection_us.mean()));
    std::printf(
        "model: L/D = %.2f -> formula(1) predicts %.1f%% (observed %.1f%%)\n",
        stats.laxity_us.mean() / stats.detection_us.mean(), pred * 100.0,
        stats.success.rate() * 100.0);
  }
  if (cfg.collect_metrics) {
    export_metrics(stats.metrics, metrics_json, metrics_json_path,
                   metrics_csv_path);
  }
  return 0;
}
