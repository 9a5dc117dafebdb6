// Profiles the parallel schedule-space explorer (not the paper's
// attack) and writes BENCH_explore_parallel.json:
//
//   ./bench_explore_parallel [output.json]
//   ./bench_explore_parallel --smoke
//
// Three parts, each CHECKing that what it times computes the same
// result on every side:
//
//  * jobs — the 611-schedule up/vi sweep (100 KB file, 64 think buckets,
//    preemption bound 3, seed 1) at 1, 2 and 4 workers. The sweep lasts
//    about 1.2 s at one worker and reduces in batches of 4 executed
//    leaves, which is what bounds its parallel speedup. kPasses passes;
//    within a pass each job count runs once, in an order that rotates
//    from pass to pass. Reports the median and quartiles of each job
//    count's sweep time.
//  * context_reuse — the explorer's per-leaf round shape (canonical
//    config, no journal), built from scratch against started from a
//    worker's RoundContext template. Each pass is sized to about a
//    second; kPasses pairs, the side that goes first alternating.
//    Reports both sides' rounds/s and the per-pair speedup (medians and
//    quartiles).
//  * checkpoint_ablation — the up/vi 4 KB sweep at bound 5 (1,024
//    schedules, one worker) with checkpoint forks off and on, kPasses
//    pairs, the side that goes first alternating. Reports both sides'
//    sweep time and the per-pair speedup (medians and quartiles).
//
// The whole run takes about a minute and a half on a 4-thread host.
// TOCTTOU_ROUNDS sets the think buckets of the timed sweeps (default 64).
//
// --smoke runs one short pass of every part with every CHECK and prints
// no timing table and writes no JSON: the jobs sweep at 1 and 4 workers
// on 8 buckets, one context-reuse pair of 64 rounds a side, and the
// checkpoint ablation on 8 buckets at bound 5.
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
#include "tocttou/explore/explorer.h"

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPasses = 5;
constexpr double kPassSeconds = 1.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int buckets_or(int dflt) {
  if (const char* env = std::getenv("TOCTTOU_ROUNDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return dflt;
}

core::ScenarioConfig smp_vi() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 42;
  return c;
}

core::ScenarioConfig up_vi(int file_bytes, std::uint64_t seed) {
  core::ScenarioConfig c;
  c.profile = programs::testbed_uniprocessor_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = file_bytes;
  c.seed = seed;
  return c;
}

explore::ExploreConfig exhaustive(int buckets, int bound) {
  explore::ExploreConfig ecfg;
  ecfg.mode = explore::ExploreMode::exhaustive;
  ecfg.think_buckets = buckets;
  ecfg.preemption_bound = bound;
  ecfg.max_schedules = 200000;
  return ecfg;
}

bool same_result(const explore::ExploreResult& a,
                 const explore::ExploreResult& b) {
  bool ok = a.schedules == b.schedules;
  ok = ok && a.rounds_executed == b.rounds_executed;
  ok = ok && a.policy_schedules == b.policy_schedules;
  ok = ok && a.exact_success == b.exact_success;
  ok = ok && a.total_mass == b.total_mass;
  ok = ok && a.successes == b.successes;
  ok = ok && a.schedules_to_first_hit == b.schedules_to_first_hit;
  ok = ok && a.witness.has_value() == b.witness.has_value();
  if (ok && a.witness) ok = a.witness->serialize() == b.witness->serialize();
  return ok;
}

using bench::quartiles;

/// One job count's sweep times over the passes.
struct JobsReport {
  int jobs = 0;
  Samples secs;
};

struct JobsSweep {
  int think_buckets = 0;
  int schedules = 0;
  std::uint64_t leaves_executed = 0;
  std::vector<JobsReport> reports;
};

JobsSweep bench_jobs(int buckets, bool smoke) {
  const core::ScenarioConfig cfg = up_vi(100 * 1024, 1);
  const explore::ExploreConfig ecfg = exhaustive(buckets, 3);
  JobsSweep s;
  s.think_buckets = buckets;
  for (const int jobs : smoke ? std::vector<int>{1, 4}
                              : std::vector<int>{1, 2, 4}) {
    s.reports.push_back({jobs, {}});
  }
  // Warm-up (allocator, page cache) on a smaller sweep.
  if (!smoke) {
    explore::ExploreConfig warm = exhaustive(std::max(4, buckets / 8), 3);
    warm.jobs = 2;
    (void)explore::explore(cfg, warm);
  }
  explore::ExploreResult baseline;
  const int n = static_cast<int>(s.reports.size());
  for (int pass = 0; pass < (smoke ? 1 : kPasses); ++pass) {
    for (int k = 0; k < n; ++k) {
      JobsReport& r = s.reports[static_cast<std::size_t>((pass + k) % n)];
      explore::ExploreConfig run = ecfg;
      run.jobs = r.jobs;
      const auto t0 = Clock::now();
      const explore::ExploreResult res = explore::explore(cfg, run);
      r.secs.add(seconds_since(t0));
      if (s.schedules == 0) {
        baseline = res;
        s.schedules = res.schedules;
        s.leaves_executed = res.metrics.counter("explore.leaves_executed");
      } else {
        TOCTTOU_CHECK(same_result(baseline, res),
                      "the sweep must give the same result at any job count");
      }
    }
  }
  return s;
}

/// Context reuse against fresh construction, on the explorer's per-leaf
/// round shape (canonical config, no journal — setup-heavy relative to
/// the short 4 KB simulation).
struct ReuseReport {
  int rounds = 0;  // per pass
  Samples fresh_rps;
  Samples reuse_rps;
  Samples speedup;  // reuse / fresh, per pair
};

ReuseReport bench_context_reuse(bool smoke) {
  core::ScenarioConfig cfg = explore::canonical_explore_config(smp_vi());
  const auto run_all = [&cfg](int rounds, core::RoundContext* ctx) {
    std::uint64_t events = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      cfg.seed = 42 + static_cast<std::uint64_t>(i % 16);
      events += core::run_round(cfg, ctx).events;
    }
    const double secs = seconds_since(t0);
    TOCTTOU_CHECK(events > 0, "rounds must simulate");
    return secs;
  };

  // Rounds per pass: double a fresh pass until it lasts a tenth of
  // kPassSeconds, then scale it to kPassSeconds. The doubling doubles as
  // the warm-up. A smoke run times one pair of 64 rounds a side.
  ReuseReport r;
  int n = 64;
  while (!smoke) {
    const double sec = run_all(n, nullptr);
    if (sec >= kPassSeconds / 10) {
      r.rounds = std::max(64, static_cast<int>(n * kPassSeconds / sec));
      break;
    }
    n *= 2;
  }
  if (smoke) r.rounds = n;
  for (int pair = 0; pair < (smoke ? 1 : kPasses); ++pair) {
    double fresh = 0.0, reuse = 0.0;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (pair % 2 == 0)) {
        fresh = run_all(r.rounds, nullptr);
      } else {
        core::RoundContext ctx;
        reuse = run_all(r.rounds, &ctx);
        TOCTTOU_CHECK(
            ctx.reuses() == static_cast<std::uint64_t>(r.rounds) - 1,
            "every round after the first must reuse the template");
      }
    }
    r.fresh_rps.add(r.rounds / fresh);
    r.reuse_rps.add(r.rounds / reuse);
    r.speedup.add(fresh / reuse);
  }
  return r;
}

/// Checkpoint/fork ablation: the up/vi exhaustive sweep with
/// checkpointing OFF (re-simulate every leaf's full schedule prefix) and
/// ON (fork leaves off mid-round parent clones), in kPasses pairs whose
/// first side alternates. Either way each schedule executes once, so the
/// ratio measures forking alone. Results are bit-identical by contract;
/// only wall time and the checkpoint counters differ.
struct AblationReport {
  int think_buckets = 0;
  int bound = 0;
  int schedules = 0;
  Samples off_secs;
  Samples on_secs;
  Samples speedup;  // off / on, per pair
  std::uint64_t checkpoints = 0;
  std::uint64_t forks = 0;
  std::uint64_t prefix_ns_saved = 0;
  std::uint64_t cache_hits = 0;
};

AblationReport bench_checkpoint_ablation(int buckets, int bound,
                                         int passes) {
  const core::ScenarioConfig cfg = up_vi(4096, 42);
  explore::ExploreConfig ecfg = exhaustive(buckets, bound);
  ecfg.jobs = 1;

  AblationReport r;
  r.think_buckets = buckets;
  r.bound = bound;
  for (int pair = 0; pair < passes; ++pair) {
    double secs[2] = {0.0, 0.0};  // off, on
    explore::ExploreResult res[2];
    for (int side = 0; side < 2; ++side) {
      const int on = (side == 0) == (pair % 2 == 1) ? 1 : 0;
      ecfg.checkpoint = on == 1;
      const auto t0 = Clock::now();
      res[on] = explore::explore(cfg, ecfg);
      secs[on] = seconds_since(t0);
    }
    TOCTTOU_CHECK(same_result(res[0], res[1]),
                  "checkpoint ablation must not change exploration results");
    r.off_secs.add(secs[0]);
    r.on_secs.add(secs[1]);
    r.speedup.add(secs[0] / secs[1]);
    r.schedules = res[1].schedules;
    r.checkpoints = res[1].metrics.counter("explore.checkpoints");
    r.forks = res[1].metrics.counter("explore.forks");
    r.prefix_ns_saved = res[1].metrics.counter("explore.prefix_ns_saved");
    r.cache_hits = res[1].metrics.counter("explore.cache_hits");
  }
  return r;
}

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  if (smoke) {
    const JobsSweep sweep = bench_jobs(8, true);
    std::printf("up/vi 100KB buckets=8 bound=3   %d schedules at 1 and 4 "
                "jobs\n",
                sweep.schedules);
    const ReuseReport reuse = bench_context_reuse(true);
    std::printf("round context   %d rounds fresh and reused\n", reuse.rounds);
    const AblationReport abl = bench_checkpoint_ablation(8, /*bound=*/5, 1);
    std::printf("checkpoint ablation   up/vi buckets=8 bound=5   %d "
                "schedules, checkpoint off and on\n",
                abl.schedules);
    std::printf("smoke: every check held; no JSON written\n");
    return 0;
  }
  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_explore_parallel.json";

  // Thread-level speedup is bounded by the host's core count; record it
  // so the jobs sweep is interpretable (on a 1-core machine every
  // multi-worker run is pure overhead, by construction).
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads: %u\n", hw_threads);

  const JobsSweep sweep = bench_jobs(buckets_or(64), false);
  std::printf("up/vi 100KB buckets=%d bound=3   %d schedules (%llu "
              "executed)\n",
              sweep.think_buckets, sweep.schedules,
              static_cast<unsigned long long>(sweep.leaves_executed));
  const double serial = sweep.reports.front().secs.median();
  for (const JobsReport& r : sweep.reports) {
    std::printf("  jobs=%d   %7.3fs median (p25 %.3f, p75 %.3f)   "
                "speedup %.2fx\n",
                r.jobs, r.secs.median(), r.secs.quantile(0.25),
                r.secs.quantile(0.75), serial / r.secs.median());
  }

  const ReuseReport reuse = bench_context_reuse(false);
  std::printf("round context   %d rounds/pass   fresh %9.1f r/s   reuse "
              "%9.1f r/s   speedup %.2fx (medians)\n",
              reuse.rounds, reuse.fresh_rps.median(),
              reuse.reuse_rps.median(), reuse.speedup.median());

  // Checkpoint/fork ablation on the up/vi exhaustive sweep. The deep
  // bound is where prefix re-simulation dominates (each leaf shares a
  // long prefix with its parent), so it is the honest shape for the
  // headline speedup.
  const AblationReport abl =
      bench_checkpoint_ablation(buckets_or(64), /*bound=*/5, kPasses);
  std::printf("checkpoint ablation   up/vi buckets=%d bound=%d   "
              "%d schedules\n",
              abl.think_buckets, abl.bound, abl.schedules);
  std::printf("  checkpoint=off  %7.2fs median (p25 %.2f, p75 %.2f)\n",
              abl.off_secs.median(), abl.off_secs.quantile(0.25),
              abl.off_secs.quantile(0.75));
  std::printf("  checkpoint=on   %7.2fs median (p25 %.2f, p75 %.2f)   "
              "speedup %.2fx (p25 %.2f, p75 %.2f)   (checkpoints=%llu "
              "forks=%llu cache_hits=%llu prefix_saved=%.2fs)\n",
              abl.on_secs.median(), abl.on_secs.quantile(0.25),
              abl.on_secs.quantile(0.75), abl.speedup.median(),
              abl.speedup.quantile(0.25), abl.speedup.quantile(0.75),
              static_cast<unsigned long long>(abl.checkpoints),
              static_cast<unsigned long long>(abl.forks),
              static_cast<unsigned long long>(abl.cache_hits),
              static_cast<double>(abl.prefix_ns_saved) / 1e9);

  std::string json = "{\n";
  json += "  \"bench\": \"explore_parallel\",\n";
  json +=
      "  \"optimization\": \"canonical wave-front enumeration on a "
      "work-stealing pool + RoundContext template reuse\",\n";
  json += strfmt("  \"hardware_threads\": %u,\n", hw_threads);
  json += strfmt("  \"passes\": %d,\n", kPasses);
  json += strfmt(
      "  \"sweep\": {\"scenario\": \"up/vi 100KB exhaustive, seed 1\", "
      "\"think_buckets\": %d, \"preemption_bound\": 3, \"schedules\": %d, "
      "\"leaves_executed\": %llu},\n",
      sweep.think_buckets, sweep.schedules,
      static_cast<unsigned long long>(sweep.leaves_executed));
  json += "  \"jobs\": [\n";
  for (std::size_t i = 0; i < sweep.reports.size(); ++i) {
    const JobsReport& r = sweep.reports[i];
    json += strfmt("    {\"jobs\": %d, \"secs\": %s, \"speedup\": %.4f}%s\n",
                   r.jobs, quartiles(r.secs, 4).c_str(),
                   serial / r.secs.median(),
                   i + 1 < sweep.reports.size() ? "," : "");
  }
  json += "  ],\n";
  json += strfmt(
      "  \"context_reuse\": {\"rounds\": %d, \"fresh_rounds_per_sec\": %s, "
      "\"reuse_rounds_per_sec\": %s, \"speedup\": %s},\n",
      reuse.rounds, quartiles(reuse.fresh_rps, 1).c_str(),
      quartiles(reuse.reuse_rps, 1).c_str(),
      quartiles(reuse.speedup, 4).c_str());
  json += strfmt(
      "  \"checkpoint_ablation\": {\"scenario\": \"up/vi exhaustive\", "
      "\"think_buckets\": %d, \"preemption_bound\": %d, \"jobs\": 1, "
      "\"schedules\": %d,\n",
      abl.think_buckets, abl.bound, abl.schedules);
  json += strfmt("    \"off_secs\": %s, \"on_secs\": %s, \"speedup\": %s,\n",
                 quartiles(abl.off_secs, 3).c_str(),
                 quartiles(abl.on_secs, 3).c_str(),
                 quartiles(abl.speedup, 4).c_str());
  json += strfmt(
      "    \"checkpoints\": %llu, \"forks\": %llu, \"cache_hits\": %llu, "
      "\"prefix_ns_saved\": %llu},\n",
      static_cast<unsigned long long>(abl.checkpoints),
      static_cast<unsigned long long>(abl.forks),
      static_cast<unsigned long long>(abl.cache_hits),
      static_cast<unsigned long long>(abl.prefix_ns_saved));
  json += "  \"identical_results\": true\n";
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
