// Standalone (gtest-free) determinism check for the parallel explorer.
// CI builds exactly this binary under -fsanitize=thread: exhaustive
// exploration (with checkpoint/fork ON and OFF) and a PCT exploration
// each run with 1 and 4 workers, and every deterministic result field
// must match — proving the work-stealing wave executor AND the
// checkpoint seed hand-off between workers race-free without
// instrumenting the gtest/benchmark binaries. Two more checkpointed
// sweeps fork every program kind: the pipelined attacker's two threads
// and their shared state, and a round with 16 tenant processes — a fork
// that kept a pointer into a checkpoint another worker adopts races
// there. A checkpointed sweep with the detector on forks every leaf's
// syscall journal, string table included, and its sync log, so a worker
// that adopts another's checkpoint reads both; its cross-check report
// must match too. Exits non-zero on divergence.
#include <cstdio>
#include <string>

#include "tocttou/detect/cross_check.h"
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

bool check_detect_pair(const core::ScenarioConfig& cfg,
                       const explore::ExploreConfig& base_ecfg,
                       const char* label) {
  explore::ExploreConfig serial_cfg = base_ecfg;
  serial_cfg.jobs = 1;
  explore::ExploreConfig par_cfg = base_ecfg;
  par_cfg.jobs = 4;
  const detect::CrossCheckResult a = detect::cross_check(cfg, serial_cfg);
  const detect::CrossCheckResult b = detect::cross_check(cfg, par_cfg);
  std::printf("[%s] jobs=1: %s\n", label, a.report.summary().c_str());
  std::printf("[%s] jobs=4: %s\n", label, b.report.summary().c_str());
  const bool ok = a.summary() == b.summary() &&
                  a.report.summary() == b.report.summary() &&
                  a.report.to_csv() == b.report.to_csv() &&
                  a.explore.schedules == b.explore.schedules &&
                  a.explore.exact_success == b.explore.exact_success;
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
  // adopted by another, the exact hand-off TSan needs to see. With state
  // hashing at its default (on) this leg also covers the frozen outcome
  // store read concurrently by every worker plus the per-worker sibling
  // overlays.
  ex.checkpoint = true;
  bool ok = check_pair(cfg, ex, "exhaustive-checkpoint-reduction-on");
  // Reduction off: the pre-reduction wave executor, for contrast — the
  // pair must still match each other (and the on legs match them via
  // the cli_reduction_on_off ctest and the gtest equivalence harness).
  ex.state_hash = false;
  ok = check_pair(cfg, ex, "exhaustive-checkpoint-reduction-off") && ok;
  ex.state_hash = true;
  explore::ExploreConfig detect_ex = ex;
  detect_ex.think_buckets = 16;
  detect_ex.preemption_bound = 2;
  ok = check_detect_pair(cfg, detect_ex, "exhaustive-checkpoint-detect") && ok;
  ex.checkpoint = false;
  ok = check_pair(cfg, ex, "exhaustive-replay") && ok;

  // The divergent-witness sweep (smp/gedit/pipelined) and a sweep with
  // tenants, both checkpointed with state hashing on.
  ex.checkpoint = true;
  core::ScenarioConfig pipelined = cfg;
  pipelined.victim = core::VictimKind::gedit;
  pipelined.attacker = core::AttackerKind::pipelined;
  explore::ExploreConfig wide = ex;
  wide.think_buckets = 16;
  wide.preemption_bound = 2;
  wide.max_schedules = 200000;
  ok = check_pair(pipelined, wide, "exhaustive-checkpoint-pipelined") && ok;
  core::ScenarioConfig tenants = cfg;
  std::string err;
  if (!programs::BackgroundSpec::parse("procs=16", &tenants.background,
                                       &err)) {
    std::printf("FAIL: %s\n", err.c_str());
    return 1;
  }
  explore::ExploreConfig tenant_ex = ex;
  tenant_ex.think_buckets = 4;
  tenant_ex.max_schedules = 200000;
  ok = check_pair(tenants, tenant_ex, "exhaustive-checkpoint-tenants") && ok;

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
