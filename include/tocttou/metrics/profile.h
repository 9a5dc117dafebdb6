// Wall-clock profiling of the simulator itself (NOT of simulated time).
//
// Kept strictly out of the metrics Registry: wall times differ run to
// run, so folding them into the deterministic snapshot would break the
// bit-identical --jobs invariance contract. The harness fills one of
// these per serial profiling run; bench_core_hotpath aggregates them
// into BENCH_core_hotpath.json.
#pragma once

#include <cstdint>

namespace tocttou::metrics {

/// Per-subsystem wall time for run_round(), in nanoseconds of host time.
/// Attach via ScenarioConfig::wall_profile (serial campaigns only — the
/// struct is not thread-safe by design; profiling a parallel campaign
/// would interleave the phase brackets anyway).
struct WallProfile {
  std::uint64_t rounds = 0;
  /// VFS tree + program staging; in a RoundContext, the one full audit
  /// of a freshly staged template counts here too.
  std::uint64_t setup_ns = 0;
  std::uint64_t sim_ns = 0;      // kernel event loop (run_until)
  std::uint64_t analyze_ns = 0;  // judging + window analysis
  /// Post-round VFS invariant audit: the delta audit against the
  /// template (Vfs::audit_since) for a round copied from a clean one,
  /// the full audit otherwise.
  std::uint64_t audit_ns = 0;
  std::uint64_t total_ns = 0;

  void add(const WallProfile& other) {
    rounds += other.rounds;
    setup_ns += other.setup_ns;
    sim_ns += other.sim_ns;
    analyze_ns += other.analyze_ns;
    audit_ns += other.audit_ns;
    total_ns += other.total_ns;
  }
};

}  // namespace tocttou::metrics
