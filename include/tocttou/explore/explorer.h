// Schedule-space exploration: replace the campaign's random jitter with
// systematic enumeration of the scheduling choice points.
//
// Under the canonical exploration config (noise model off, background
// load off, no faults) a round is fully deterministic given (victim
// think time, scheduling choices). The explorer exploits this two ways:
//
//  * exhaustive — the victim think time, the only stochastic input the
//    harness draws, is quantized into `think_buckets` midpoint-quadrature
//    buckets of mass 1/K over victim_think_range(); one pass over
//    divergence waves (wave d = every schedule with exactly d non-policy
//    choices) enumerates, per bucket, every schedule reachable with at
//    most `preemption_bound` of them. When wave d closes, the result is
//    exactly that of a sweep bounded at d. The policy schedule of each
//    bucket carries the bucket's mass, so summing mass * success over
//    buckets yields the EXACT attack success probability under the
//    calibrated think distribution — the number a Monte Carlo campaign
//    and the paper's Equation 1 only estimate.
//    Divergent schedules carry zero mass (they need jitter the canonical
//    config turns off); they provide coverage and witnesses.
//  * pct — PCT-style randomized priorities: each schedule draws a think
//    time and random per-process priorities with `pct_depth - 1` change
//    points, giving the classic >= 1/(n*k^(d-1)) chance of hitting any
//    depth-d ordering bug per schedule. Cheap probabilistic coverage
//    when the exhaustive space is too large.
//
// Every explored schedule yields a replay token (see token.h) that
// replay_token() re-executes bit-for-bit.
//
// Parallelism and the determinism contract (DESIGN.md §6): exploration
// fans leaf rounds out across `jobs` worker threads, each owning a
// reusable core::RoundContext, and reduces outcomes in a CANONICAL
// enumeration order that depends only on the schedule space — never on
// thread timing. The exhaustive mode enumerates in divergence waves
// (wave d = all schedules with d non-policy choices, ordered by
// (parent index, choice site, option)); PCT enumerates by schedule
// index. Schedule caps truncate in canonical order, the witness is the
// fewest-divergence success with the lexicographically least serialized
// token, and schedules_to_first_hit counts canonical enumeration order.
// Every ExploreResult field except the throughput counters in `metrics`
// (explore.steals, explore.ctx_reuses) is therefore bit-identical for
// any `jobs` value.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "tocttou/common/stats.h"
#include "tocttou/core/harness.h"
#include "tocttou/explore/choice_source.h"
#include "tocttou/explore/resilience.h"
#include "tocttou/explore/token.h"

namespace tocttou::explore {

enum class ExploreMode { exhaustive, pct };

const char* to_string(ExploreMode m);

struct ExploreConfig {
  ExploreMode mode = ExploreMode::exhaustive;

  /// Quantization of the victim think range (exhaustive mode). More
  /// buckets = finer exact probability; cost scales linearly.
  int think_buckets = 64;

  /// Highest preemption bound: the sweep enumerates divergence waves
  /// 0..bound. -1 = go deeper until the space is fully enumerated or the
  /// round budget runs out (on most scenarios every divergence exposes
  /// fresh wakeup sites, so the space is unbounded in depth — expect the
  /// budget).
  int preemption_bound = 2;

  /// Schedule cap: the wave that would take the schedules enumerated
  /// past it is truncated in canonical order, and the sweep ends there.
  /// Also the round budget: the sweep goes no deeper once
  /// ExploreResult::rounds_executed reaches it.
  int max_schedules = 200000;

  /// PCT mode knobs: bug depth d and schedules to run.
  int pct_depth = 3;
  int pct_schedules = 1000;
  std::uint64_t pct_seed = 1;

  /// Worker threads executing leaf rounds: 1 runs everything on the
  /// calling thread, N > 1 shards leaves across N workers (each with its
  /// own reusable RoundContext), <= 0 uses the hardware concurrency.
  /// Every result field except the throughput counters in
  /// ExploreResult::metrics is bit-identical for any value.
  int jobs = 1;

  /// Exhaustive mode: fork each leaf from a checkpoint of its parent at
  /// the divergence site (core::RoundRun's deep clone) instead of
  /// re-simulating the shared schedule prefix from scratch — the
  /// default, and about a 2x leaves/sec win on deep waves.
  /// Off = full prefix replay per leaf. Either way every schedule
  /// executes at most once (a resumed sweep reduces its journaled
  /// schedules from the explorer's outcome store instead).
  /// Every ExploreResult field is byte-identical either way;
  /// checkpointing additionally reports the explore.checkpoints /
  /// explore.forks / explore.prefix_ns_saved / explore.cache_hits /
  /// explore.degraded_groups counters in ExploreResult::metrics. At
  /// most 512 checkpoints are live at once; a group whose checkpoint was
  /// crowded out replays its parent's prefix instead
  /// (explore.degraded_groups, which depends on timing) — wall time
  /// changes, results never do.
  bool checkpoint = true;

  /// Canonical state hashing (DESIGN.md §10, exhaustive mode): every
  /// fresh stepped leaf records a full-state digest at each scheduling
  /// site past its forced prefix; a child whose digest is already in
  /// the donor table stops executing there and synthesizes its outcome
  /// from the donor's recorded tail (same state + no remaining forced
  /// choices = provably identical continuation). Pure execution
  /// avoidance: enumeration, exact probability, witness and every other
  /// ExploreResult field are byte-identical on/off by construction —
  /// only wall time and the explore.hash_merges /
  /// explore.leaves_executed counters (on-only, jobs-invariant) change.
  /// Merging needs stepped leaves, so it is inert with checkpoint off,
  /// and it disables itself under a leaf_observer (the observer expects
  /// every leaf to run to completion).
  bool state_hash = true;

  /// Durable progress journal (see sweep_journal.h): every completed
  /// reduction batch is CRC-framed and flushed to this path. Empty = no
  /// journal. With `resume` set, an existing journal at the path is
  /// validated and its leaves are replayed into the reduction instead of
  /// re-executing; the final ExploreResult is byte-identical to an
  /// uninterrupted run (journal/resume counters and throughput metrics
  /// excepted — see DESIGN.md §8).
  std::string journal_path;
  bool resume = false;

  /// Graceful-stop poll, checked between reduction batches (never
  /// mid-leaf). Returning true ends the sweep with a valid partial
  /// result (`ExploreResult::interrupted`) after flushing the journal,
  /// so a --resume run can pick up where it stopped. The CLI wires
  /// SIGINT/SIGTERM and --deadline-s through this.
  std::function<bool()> should_stop;

  /// Test hook: called for every executed exhaustive leaf with a unique
  /// replay key (the leaf's serialized schedule token) and the leaf's
  /// full RoundResult, BEFORE it is compacted into the reduction. Each
  /// schedule executes once, so each key fires once, with checkpointing
  /// on or off. May be called concurrently from worker threads when
  /// jobs > 1 — the callback must synchronize itself. The
  /// fork_equals_replay ctest uses this to compare journals/metrics
  /// leaf-by-leaf across checkpoint on/off and jobs values. Leaves keep
  /// their syscall journal only while an observer is attached (or the
  /// scenario runs the detector): an unobserved leaf takes its window
  /// from RoundResult::window_tracker, and its forks copy no journal.
  std::function<void(const std::string& leaf_key,
                     const core::RoundResult& r)>
      leaf_observer;
};

/// Cap on quarantined-schedule replay tokens retained per exploration
/// (mirrors core::kMaxAnomalyTokens for campaigns).
inline constexpr int kMaxQuarantineTokens = 8;

struct ExploreResult {
  ExploreMode mode = ExploreMode::exhaustive;

  /// Distinct schedules enumerated (divergence waves 0..bound_reached).
  int schedules = 0;
  /// Exhaustive mode: the sum, over bounds 0..bound_reached, of the
  /// schedules a sweep bounded there enumerates — what a bound-by-bound
  /// enumeration would reduce. Each schedule executes at most once;
  /// explore.leaves_executed and explore.hash_merges count what ran.
  /// The round budget (max_schedules) is measured in it. PCT mode: the
  /// schedules enumerated.
  int rounds_executed = 0;
  /// Schedules that followed the policy at every choice point (one per
  /// think bucket when complete).
  int policy_schedules = 0;
  /// Every schedule within bound_reached was enumerated (bounded
  /// completeness; no schedule-cap truncation). When bound_cutoffs is
  /// also zero the bound covers the entire schedule space.
  bool complete = false;
  /// The deepest divergence wave the sweep enumerated: the preemption
  /// bound the result belongs to.
  int bound_reached = 0;
  /// Always 0: the explorer prunes no sibling as commuting (DESIGN.md
  /// §10.1). Kept because the report prints it ("0 sleep-set-pruned").
  std::uint64_t pruned_by_sleep_set = 0;
  std::uint64_t bound_cutoffs = 0;

  /// Exact success probability: sum of bucket mass over succeeding
  /// policy schedules. Meaningful in exhaustive mode only.
  double exact_success = 0.0;
  /// Total probability mass accounted for (≈ 1.0 when every bucket's
  /// policy schedule completed).
  double total_mass = 0.0;

  /// Schedules (of any weight) where the attack succeeded.
  int successes = 0;
  /// Replay token of the best witness (fewest divergences from policy,
  /// then earliest found); empty when no schedule succeeded.
  std::optional<ScheduleToken> witness;
  int witness_divergences = -1;
  /// Schedules executed up to and including the first success; -1 if
  /// none succeeded.
  int schedules_to_first_hit = -1;

  /// Victim race window (us) measured on policy schedules.
  RunningStats window_us;

  /// PCT mode: processes seen, max choice sites per schedule, and the
  /// per-schedule hitting bound 1/(n*k^(d-1)) they imply.
  int pct_procs = 0;
  int pct_max_steps = 0;
  double pct_bound = 0.0;

  /// Schedules whose forced prefix failed to match the sites the kernel
  /// reached, each counted once (should stay 0; nonzero means
  /// nondeterminism crept in).
  int divergence_errors = 0;

  /// The sweep stopped early via ExploreConfig::should_stop (signal or
  /// deadline). Everything reduced so far is valid; `complete` is false
  /// and, when a journal is active, the on-disk state resumes exactly
  /// here.
  bool interrupted = false;

  /// Schedules whose execution threw twice (see resilience.h): counted
  /// and enumerated but excluded from probability mass and expansion.
  /// quarantined + healthy schedules == `schedules`.
  int quarantined = 0;
  /// Replay tokens of the first kMaxQuarantineTokens quarantined
  /// schedules, in canonical enumeration order (jobs-invariant).
  std::vector<QuarantineRecord> quarantine;

  /// Journal bookkeeping: leaves loaded from a resumed journal (0 on a
  /// fresh run) and the first journal error. A create/resume failure
  /// (unwritable path, header mismatch) aborts the sweep before any
  /// round runs (`schedules` == 0); a write error mid-sweep is latched
  /// here but the sweep itself still completes — it just stops being
  /// resumable past the last intact batch.
  int journal_leaves_loaded = 0;
  std::string journal_error;

  /// Exploration throughput counters: explore.leaves (rounds_executed —
  /// deterministic), explore.steals (work-stealing events)
  /// and explore.ctx_reuses (rounds starting from a worker's
  /// already-staged template, RoundContext::reuses()).
  /// The latter two depend on thread timing and worker count and are
  /// deliberately OUTSIDE the jobs-invariance contract.
  metrics::Registry metrics;
};

/// The deterministic base config exploration runs under: noise model
/// off, background load off, fault plan cleared. Everything else (paths,
/// victim, attacker, testbed timings, file size, defenses) is preserved,
/// as are the record flags.
core::ScenarioConfig canonical_explore_config(core::ScenarioConfig cfg);

/// Explores the schedule space of `cfg` (canonicalized internally).
ExploreResult explore(const core::ScenarioConfig& cfg,
                      const ExploreConfig& ecfg);

}  // namespace tocttou::explore
