// Profiles the parallel schedule-space explorer (not the paper's
// attack): exhaustive-exploration leaves/sec at 1/2/4/8 worker threads,
// plus the per-round setup win from RoundContext reuse (a staged
// template tree each round copies). Seeds the bench trajectory's
// BENCH_explore_parallel.json artifact:
//
//   ./bench_explore_parallel [output.json]
//
// Defaults to BENCH_explore_parallel.json in the working directory; the
// exploration size scales with TOCTTOU_ROUNDS (think buckets, default
// 48). Every job count runs the identical deterministic enumeration,
// and the bench CHECKs the results match before reporting speedups.
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
#include "tocttou/explore/explorer.h"

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

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

core::ScenarioConfig up_vi() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_uniprocessor_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 42;
  return c;
}

struct JobsReport {
  int jobs = 0;
  int leaves = 0;
  double leaves_per_sec = 0.0;
  double speedup = 0.0;  // vs jobs=1
};

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

/// Context-reuse vs fresh construction, on the explorer's per-leaf round
/// shape (canonical config, no journal — setup-heavy relative to the
/// short 4KB simulation).
struct ReuseReport {
  int rounds = 0;
  double fresh_rps = 0.0;
  double reuse_rps = 0.0;
  double speedup = 0.0;
};

ReuseReport bench_context_reuse(int rounds) {
  core::ScenarioConfig cfg = explore::canonical_explore_config(smp_vi());
  ReuseReport r;
  r.rounds = rounds;

  const auto run_all = [&](core::RoundContext* ctx) {
    std::uint64_t events = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      cfg.seed = 42 + static_cast<std::uint64_t>(i % 16);
      events += core::run_round(cfg, ctx).events;
    }
    const double secs = seconds_since(t0);
    TOCTTOU_CHECK(events > 0, "rounds must simulate");
    return static_cast<double>(rounds) / secs;
  };

  // Warm-up, then fresh-construction and context-reuse passes.
  run_all(nullptr);
  r.fresh_rps = run_all(nullptr);
  core::RoundContext ctx;
  r.reuse_rps = run_all(&ctx);
  r.speedup = r.reuse_rps / r.fresh_rps;
  TOCTTOU_CHECK(ctx.reuses() == static_cast<std::uint64_t>(rounds) - 1,
                "every round after the first must reuse the template");
  return r;
}

/// Checkpoint/fork ablation: the up/vi exhaustive sweep run twice —
/// checkpointing ON (fork leaves off mid-round parent clones) vs OFF
/// (re-simulate every leaf's full schedule prefix). Both modes reduce
/// schedules re-enumerated by deeper iterations from the outcome store,
/// so the ratio measures forking alone. Results are bit-identical by
/// contract; only wall time and the checkpoint counters differ. leaves/sec uses the
/// enumerated schedule count (the logical work, identical either way)
/// so the speedup is the wall-clock ratio.
struct AblationReport {
  int think_buckets = 0;
  int bound = 0;
  int schedules = 0;
  double on_secs = 0.0;
  double off_secs = 0.0;
  double on_leaves_per_sec = 0.0;
  double off_leaves_per_sec = 0.0;
  double speedup = 0.0;  // on vs off
  std::uint64_t checkpoints = 0;
  std::uint64_t forks = 0;
  std::uint64_t prefix_ns_saved = 0;
  std::uint64_t cache_hits = 0;
};

AblationReport bench_checkpoint_ablation(int buckets, int bound) {
  const core::ScenarioConfig cfg = up_vi();
  explore::ExploreConfig ecfg;
  ecfg.mode = explore::ExploreMode::exhaustive;
  ecfg.think_buckets = buckets;
  ecfg.preemption_bound = bound;
  ecfg.max_schedules = 200000;
  ecfg.jobs = 1;

  AblationReport r;
  r.think_buckets = buckets;
  r.bound = bound;

  ecfg.checkpoint = false;
  const auto t_off = Clock::now();
  const explore::ExploreResult off = explore::explore(cfg, ecfg);
  r.off_secs = seconds_since(t_off);

  ecfg.checkpoint = true;
  const auto t_on = Clock::now();
  const explore::ExploreResult on = explore::explore(cfg, ecfg);
  r.on_secs = seconds_since(t_on);

  TOCTTOU_CHECK(same_result(off, on),
                "checkpoint ablation must not change exploration results");
  r.schedules = on.schedules;
  r.on_leaves_per_sec = static_cast<double>(on.schedules) / r.on_secs;
  r.off_leaves_per_sec = static_cast<double>(off.schedules) / r.off_secs;
  r.speedup = r.on_leaves_per_sec / r.off_leaves_per_sec;
  r.checkpoints = on.metrics.counter("explore.checkpoints");
  r.forks = on.metrics.counter("explore.forks");
  r.prefix_ns_saved = on.metrics.counter("explore.prefix_ns_saved");
  r.cache_hits = on.metrics.counter("explore.cache_hits");
  return r;
}

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;

  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_explore_parallel.json";

  explore::ExploreConfig ecfg;
  ecfg.mode = explore::ExploreMode::exhaustive;
  ecfg.think_buckets = buckets_or(48);
  ecfg.preemption_bound = 1;
  ecfg.max_schedules = 4000;

  const core::ScenarioConfig cfg = smp_vi();

  // Thread-level speedup is bounded by the host's core count; record it
  // so the jobs sweep is interpretable (on a 1-core machine every
  // multi-worker run is pure overhead, by construction).
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware threads: %u\n", hw_threads);

  // Warm-up (allocator + page cache), then the timed jobs sweep.
  {
    explore::ExploreConfig warm = ecfg;
    warm.think_buckets = std::max(4, ecfg.think_buckets / 8);
    warm.jobs = 2;
    (void)explore::explore(cfg, warm);
  }

  std::vector<JobsReport> reports;
  explore::ExploreResult baseline;
  for (const int jobs : {1, 2, 4, 8}) {
    explore::ExploreConfig run = ecfg;
    run.jobs = jobs;
    const auto t0 = Clock::now();
    const explore::ExploreResult res = explore::explore(cfg, run);
    const double secs = seconds_since(t0);
    if (jobs == 1) {
      baseline = res;
    } else {
      TOCTTOU_CHECK(same_result(baseline, res),
                    "parallel exploration must match serial bit-for-bit");
    }
    JobsReport r;
    r.jobs = jobs;
    r.leaves = res.rounds_executed;
    r.leaves_per_sec = static_cast<double>(res.rounds_executed) / secs;
    r.speedup = reports.empty()
                    ? 1.0
                    : r.leaves_per_sec / reports.front().leaves_per_sec;
    std::printf("explore jobs=%d   %6d leaves   %9.1f leaves/s   "
                "speedup %.2fx   (steals=%llu ctx_reuses=%llu)\n",
                r.jobs, r.leaves, r.leaves_per_sec, r.speedup,
                static_cast<unsigned long long>(
                    res.metrics.counter("explore.steals")),
                static_cast<unsigned long long>(
                    res.metrics.counter("explore.ctx_reuses")));
    reports.push_back(r);
  }

  const ReuseReport reuse = bench_context_reuse(
      std::max(64, ecfg.think_buckets * 8));
  std::printf("round context         fresh %9.1f r/s   reuse %9.1f r/s   "
              "speedup %.2fx\n",
              reuse.fresh_rps, reuse.reuse_rps, reuse.speedup);

  // Checkpoint/fork ablation on the up/vi exhaustive sweep. The deep
  // bound is where prefix re-simulation dominates (each leaf shares a
  // long prefix with its parent), so it is the honest shape for the
  // headline speedup.
  const AblationReport abl =
      bench_checkpoint_ablation(buckets_or(64), /*bound=*/5);
  std::printf("checkpoint ablation   up/vi buckets=%d bound=%d   "
              "%d schedules\n",
              abl.think_buckets, abl.bound, abl.schedules);
  std::printf("  checkpoint=off  %7.2fs   %9.1f leaves/s\n", abl.off_secs,
              abl.off_leaves_per_sec);
  std::printf("  checkpoint=on   %7.2fs   %9.1f leaves/s   speedup %.2fx   "
              "(checkpoints=%llu forks=%llu cache_hits=%llu "
              "prefix_saved=%.2fs)\n",
              abl.on_secs, abl.on_leaves_per_sec, abl.speedup,
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
  json += strfmt("  \"think_buckets\": %d,\n", ecfg.think_buckets);
  json += "  \"jobs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const JobsReport& r = reports[i];
    json += strfmt(
        "    {\"jobs\": %d, \"leaves\": %d, \"leaves_per_sec\": %.2f, "
        "\"speedup\": %.4f}%s\n",
        r.jobs, r.leaves, r.leaves_per_sec, r.speedup,
        i + 1 < reports.size() ? "," : "");
  }
  json += "  ],\n";
  json += strfmt(
      "  \"context_reuse\": {\"rounds\": %d, \"fresh_rounds_per_sec\": %.2f, "
      "\"reuse_rounds_per_sec\": %.2f, \"speedup\": %.4f},\n",
      reuse.rounds, reuse.fresh_rps, reuse.reuse_rps, reuse.speedup);
  json += strfmt(
      "  \"checkpoint_ablation\": {\"scenario\": \"up/vi exhaustive\", "
      "\"think_buckets\": %d, \"preemption_bound\": %d, \"jobs\": 1, "
      "\"schedules\": %d,\n",
      abl.think_buckets, abl.bound, abl.schedules);
  json += strfmt(
      "    \"off\": {\"secs\": %.3f, \"leaves_per_sec\": %.2f},\n",
      abl.off_secs, abl.off_leaves_per_sec);
  json += strfmt(
      "    \"on\": {\"secs\": %.3f, \"leaves_per_sec\": %.2f, "
      "\"checkpoints\": %llu, \"forks\": %llu, \"cache_hits\": %llu, "
      "\"prefix_ns_saved\": %llu},\n",
      abl.on_secs, abl.on_leaves_per_sec,
      static_cast<unsigned long long>(abl.checkpoints),
      static_cast<unsigned long long>(abl.forks),
      static_cast<unsigned long long>(abl.cache_hits),
      static_cast<unsigned long long>(abl.prefix_ns_saved));
  json += strfmt("    \"speedup\": %.4f},\n", abl.speedup);
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
