// Standalone (gtest-free) determinism check for the parallel explorer.
// CI builds exactly this binary under -fsanitize=thread: exhaustive
// exploration (with checkpoint/fork ON and OFF) and a PCT exploration
// each run with 1 and 4 workers, and every deterministic result field
// must match — proving the work-stealing wave executor AND the
// checkpoint seed hand-off between workers race-free without
// instrumenting the gtest/benchmark binaries. Exits non-zero on
// divergence.
#include <cstdio>

#include "tocttou/explore/explorer.h"

namespace {

using namespace tocttou;

bool check_pair(const core::ScenarioConfig& cfg,
                const explore::ExploreConfig& base_ecfg, const char* label) {
  explore::ExploreConfig serial_cfg = base_ecfg;
  serial_cfg.jobs = 1;
  explore::ExploreConfig par_cfg = base_ecfg;
  par_cfg.jobs = 4;
  const explore::ExploreResult a = explore::explore(cfg, serial_cfg);
  const explore::ExploreResult b = explore::explore(cfg, par_cfg);
  std::printf("[%s] jobs=1: schedules=%d exact=%.9f successes=%d\n", label,
              a.schedules, a.exact_success, a.successes);
  std::printf("[%s] jobs=4: schedules=%d exact=%.9f successes=%d\n", label,
              b.schedules, b.exact_success, b.successes);

  bool ok = a.schedules == b.schedules;
  ok = ok && a.rounds_executed == b.rounds_executed;
  ok = ok && a.policy_schedules == b.policy_schedules;
  ok = ok && a.complete == b.complete;
  ok = ok && a.bound_reached == b.bound_reached;
  ok = ok && a.pruned_by_sleep_set == b.pruned_by_sleep_set;
  ok = ok && a.bound_cutoffs == b.bound_cutoffs;
  ok = ok && a.exact_success == b.exact_success;
  ok = ok && a.total_mass == b.total_mass;
  ok = ok && a.successes == b.successes;
  ok = ok && a.schedules_to_first_hit == b.schedules_to_first_hit;
  ok = ok && a.witness_divergences == b.witness_divergences;
  ok = ok && a.witness.has_value() == b.witness.has_value();
  if (ok && a.witness) {
    ok = a.witness->serialize() == b.witness->serialize();
  }
  ok = ok && a.window_us.count() == b.window_us.count();
  ok = ok && a.window_us.mean() == b.window_us.mean();
  ok = ok && a.divergence_errors == b.divergence_errors;
  ok = ok && a.metrics.counter("explore.leaves") ==
                 b.metrics.counter("explore.leaves");
  if (!ok) std::printf("[%s] DIVERGED\n", label);
  return ok;
}

}  // namespace

int main() {
  core::ScenarioConfig cfg;
  cfg.profile = programs::testbed_smp_dual_xeon();
  cfg.victim = core::VictimKind::vi;
  cfg.attacker = core::AttackerKind::naive;
  cfg.file_bytes = 4096;
  cfg.seed = 7;

  explore::ExploreConfig ex;
  ex.mode = explore::ExploreMode::exhaustive;
  ex.think_buckets = 6;
  ex.preemption_bound = 1;
  ex.max_schedules = 300;
  // Checkpoint mode first: mid-round clones minted by one worker may be
  // adopted by another, the exact hand-off TSan needs to see. With the
  // reduction flags at their defaults (on) this leg also covers the
  // frozen donor table read concurrently by every worker plus the
  // per-worker sibling overlays.
  ex.checkpoint = true;
  bool ok = check_pair(cfg, ex, "exhaustive-checkpoint-reduction-on");
  // Reduction off: the pre-reduction wave executor, for contrast — the
  // pair must still match each other (and the on legs match them via
  // the cli_reduction_on_off ctest and the gtest equivalence harness).
  ex.state_hash = false;
  ex.dpor = false;
  ok = check_pair(cfg, ex, "exhaustive-checkpoint-reduction-off") && ok;
  ex.state_hash = true;
  ex.dpor = true;
  ex.checkpoint = false;
  ok = check_pair(cfg, ex, "exhaustive-replay") && ok;

  explore::ExploreConfig pct;
  pct.mode = explore::ExploreMode::pct;
  pct.pct_schedules = 40;
  pct.pct_seed = 5;
  ok = check_pair(cfg, pct, "pct") && ok;

  if (!ok) {
    std::printf("FAIL: parallel exploration diverged from serial\n");
    return 1;
  }
  std::printf("OK: parallel exploration bit-identical to serial\n");
  return 0;
}
