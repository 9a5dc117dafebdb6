// Machine description: CPU count, relative speed, scheduling latencies,
// and the kernel-noise model responsible for the run-to-run variance the
// paper reports as the standard deviations in Tables 1 and 2 ("the
// running environment imposes variance on these parameters").
#pragma once

#include <cstdint>
#include <string>
#include <tuple>

#include "tocttou/common/rng.h"
#include "tocttou/common/time.h"

namespace tocttou::sim {

/// Stochastic perturbation applied to every CPU-bound duration, standing
/// in for timer interrupts, cache effects, and other kernel activity.
struct NoiseModel {
  /// Multiplicative jitter: effective = d * N(1, rel_sigma), floored.
  double rel_sigma = 0.03;

  /// Timer interrupt period (Linux 2.6 HZ=1000 -> 1ms) and per-tick cost.
  Duration tick_period = Duration::millis(1);
  Duration tick_cost_mean = Duration::nanos(1500);
  Duration tick_cost_stdev = Duration::nanos(400);

  /// Occasional softirq/tasklet burst riding on a tick.
  double softirq_prob = 0.02;  // per tick
  Duration softirq_cost_mean = Duration::micros(15);
  Duration softirq_cost_stdev = Duration::micros(5);

  /// Inflates a nominal CPU-time span into an effective wall span.
  Duration inflate(Duration nominal, Rng& rng) const;

  static NoiseModel none();
};

/// Background kernel-thread load: short high-priority bursts that can
/// steal the attacker's CPU at the wrong moment (the cause of the failed
/// 1-byte vi attacks in Section 5) or suspend the victim inside its
/// window on a uniprocessor.
struct BackgroundLoad {
  bool enabled = true;
  /// Mean inter-arrival of a burst, per CPU (exponential).
  Duration mean_interval = Duration::millis(8);
  Duration burst_mean = Duration::micros(400);
  Duration burst_stdev = Duration::micros(200);
  int priority = 10;  // higher than the default user priority 0

  /// Field list (sim/fields.h).
  static auto fields(auto& s) {
    return std::tie(s.enabled, s.mean_interval, s.burst_mean, s.burst_stdev,
                    s.priority);
  }
};

struct MachineSpec {
  std::string name = "machine";
  int n_cpus = 1;

  /// Relative compute speed (1.0 = the dual-Xeon reference; > 1 is
  /// faster). Nominal durations are divided by this before noise.
  double speed = 1.0;

  /// Scheduling parameters (Linux 2.6 O(1)-scheduler flavored).
  Duration timeslice = Duration::millis(100);
  Duration context_switch_cost = Duration::micros(2);
  Duration wakeup_latency = Duration::micros(2);

  /// Cost of a page-fault trap mapping a not-yet-touched libc page
  /// (Section 6.2.1 measured 6us on the Pentium D).
  Duration libc_fault_cost = Duration::micros(6);

  NoiseModel noise;
  BackgroundLoad background;

  /// Convenience: nominal -> effective duration on this machine.
  Duration effective(Duration nominal, Rng& rng) const {
    return noise.inflate(nominal * (1.0 / speed), rng);
  }
};

}  // namespace tocttou::sim
