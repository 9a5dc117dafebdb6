// Standalone (gtest-free) determinism check for the parallel campaign
// engine. CI builds exactly this binary under -fsanitize=thread: a
// vi/SMP campaign runs serially and with 4 workers — once without
// faults, once with an active fault plan (per-round FaultInjectors are
// shared-nothing state worth proving race-free), once with the
// detector, and once with 16 tenants over a 2,000-inode tree (each
// worker stages its own template tree and copies it every round) — and
// each pair of results must be identical. Exits non-zero on divergence.
#include <cstdio>
#include <string>

#include "tocttou/core/harness.h"

namespace {

bool check_pair(const tocttou::core::ScenarioConfig& cfg, const char* label) {
  using namespace tocttou;
  const auto serial = core::run_campaign(cfg, 40, /*measure_ld=*/true, 1);
  const auto parallel = core::run_campaign(cfg, 40, /*measure_ld=*/true, 4);
  const std::string a = serial.summary();
  const std::string b = parallel.summary();
  std::printf("[%s] jobs=1: %s\n[%s] jobs=4: %s\n", label, a.c_str(), label,
              b.c_str());

  bool ok = a == b;
  ok = ok && serial.success.trials() == parallel.success.trials();
  ok = ok && serial.success.successes() == parallel.success.successes();
  ok = ok && serial.total_events == parallel.total_events;
  ok = ok && serial.anomalies == parallel.anomalies;
  ok = ok && serial.laxity_us.count() == parallel.laxity_us.count();
  ok = ok && serial.laxity_us.mean() == parallel.laxity_us.mean();
  ok = ok && serial.detection_us.mean() == parallel.detection_us.mean();
  ok = ok && serial.faults.errors_injected == parallel.faults.errors_injected;
  ok = ok && serial.faults.latency_spikes == parallel.faults.latency_spikes;
  ok = ok && serial.faults.retries == parallel.faults.retries;
  ok = ok &&
       serial.faults.invariant_violations == parallel.faults.invariant_violations;
  return ok;
}

}  // namespace

int main() {
  using namespace tocttou;
  core::ScenarioConfig cfg;
  cfg.profile = programs::testbed_smp_dual_xeon();
  cfg.victim = core::VictimKind::vi;
  cfg.attacker = core::AttackerKind::naive;
  cfg.file_bytes = 50 * 1024;
  cfg.seed = 42;

  bool ok = check_pair(cfg, "no-faults");

  std::string err;
  if (!sim::FaultPlan::parse("error:0.05:errno=eintr,spike:0.05:us=60",
                             &cfg.faults, &err)) {
    std::fprintf(stderr, "FAIL: fault plan did not parse: %s\n", err.c_str());
    return 1;
  }
  ok = check_pair(cfg, "faults") && ok;

  // Detect-enabled campaign: per-round SyncLogs and DetectReport merges
  // are the newest cross-thread state; the merged report must also be
  // byte-identical between serial and 4-worker runs.
  cfg.faults = {};
  cfg.detect = true;
  ok = check_pair(cfg, "detect") && ok;
  {
    const auto serial = core::run_campaign(cfg, 40, false, 1);
    const auto parallel = core::run_campaign(cfg, 40, false, 4);
    const bool same = serial.detect.summary() == parallel.detect.summary() &&
                      serial.detect.to_csv() == parallel.detect.to_csv();
    std::printf("[detect] jobs=1: %s\n[detect] jobs=4: %s\n",
                serial.detect.summary().c_str(),
                parallel.detect.summary().c_str());
    ok = ok && same;
  }

  // Tenant campaign: every worker's rounds start from copies of its own
  // RoundContext's template and write shared inodes copy-on-write.
  cfg.detect = false;
  if (!programs::BackgroundSpec::parse("procs=16,inodes=2000",
                                       &cfg.background, &err)) {
    std::fprintf(stderr, "FAIL: tenant spec did not parse: %s\n",
                 err.c_str());
    return 1;
  }
  ok = check_pair(cfg, "tenants") && ok;

  if (!ok) {
    std::fprintf(stderr, "FAIL: parallel campaign diverged from serial\n");
    return 1;
  }
  std::printf("OK: parallel campaigns identical to serial runs\n");
  return 0;
}
