// Leaf fault containment: the structured error taxonomy the explorer
// quarantines throwing schedules under.
//
// A campaign round that throws is caught by run_block and reported as a
// failed-round anomaly; before this layer existed, the SAME throw inside
// the explorer's wave executor took the whole sweep down. The explorer
// now retries a throwing leaf once (from a fresh kernel and a fresh copy
// of the staged template, as every round starts) and, if it throws
// again, QUARANTINES the schedule: the leaf is counted, excluded from
// probability mass, and
// surfaced as a replay token tagged with an ErrorKind — deterministic
// data, not a crash. DESIGN.md §8 states the contract.
#pragma once

#include <cstdint>
#include <exception>
#include <string>

namespace tocttou::explore {

/// Why a leaf schedule was quarantined.
enum class ErrorKind : std::uint8_t {
  none = 0,
  /// SimError/TOCTTOU_CHECK (or any other std::exception): an internal
  /// invariant of the simulated kernel or VFS failed under this
  /// schedule.
  invariant_violation = 1,
  /// StepBudgetError: the round crossed ScenarioConfig::step_budget —
  /// the livelock watchdog tripped.
  step_budget_exhausted = 2,
  /// std::bad_alloc while executing the leaf.
  allocation_failure = 3,
};

const char* to_string(ErrorKind k);

/// Maps a caught leaf exception onto the taxonomy.
ErrorKind classify_exception(const std::exception& e);

/// One quarantined schedule, surfaced in ExploreResult::quarantine.
/// Records are kept in canonical enumeration order and capped at
/// kMaxQuarantineTokens, so the list is bit-identical at any job count
/// and across interrupted/resumed sweeps.
struct QuarantineRecord {
  /// Replay token ("st1:...") of the schedule's forced prefix — rerun
  /// with `tocttou --replay=TOKEN` to reproduce the failure standalone.
  std::string token;
  ErrorKind kind = ErrorKind::invariant_violation;
  /// Divergences from the policy schedule (the wave level), -1 for PCT.
  int divergences = 0;

  bool operator==(const QuarantineRecord&) const = default;
};

}  // namespace tocttou::explore
