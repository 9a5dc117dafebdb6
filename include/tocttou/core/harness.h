// Experiment harness: stages one attack round (file-system tree, victim,
// attacker, background load) on a testbed profile, runs it, and judges
// success exactly as the paper does — did the victim's chown land on
// /etc/passwd? Campaigns run many seeded rounds and aggregate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tocttou/common/stats.h"
#include "tocttou/core/analysis.h"
#include "tocttou/detect/detector.h"
#include "tocttou/metrics/metrics.h"
#include "tocttou/metrics/profile.h"
#include "tocttou/programs/background.h"
#include "tocttou/programs/testbeds.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/faults.h"
#include "tocttou/sim/ids.h"
#include "tocttou/trace/journal.h"
#include "tocttou/trace/window.h"

namespace tocttou::fs {
class Vfs;
}

namespace tocttou::sim {
class Program;
class Scheduler;
}

namespace tocttou::core {

enum class VictimKind { vi, gedit, suspending, sendmail };
enum class AttackerKind { naive, prefaulted, pipelined, none };

const char* to_string(VictimKind v);
const char* to_string(AttackerKind a);

/// Every scenario stages the same names and attacker: the file the
/// victim saves (owned by the attacker), the file the attack redirects
/// the victim's chown to, the attacker-owned decoy the pre-faulting
/// attacker exercises, and the attacker's uid and gid.
inline constexpr char kWatchedPath[] = "/home/alice/report.txt";
inline constexpr char kEvilTarget[] = "/etc/passwd";
inline constexpr char kDummyPath[] = "/tmp/dummy";
inline constexpr sim::Uid kAttackerUid = 500;
inline constexpr sim::Gid kAttackerGid = 500;

struct ScenarioConfig {
  programs::TestbedProfile profile;
  VictimKind victim = VictimKind::vi;
  AttackerKind attacker = AttackerKind::naive;
  std::uint64_t file_bytes = 100 * 1024;
  std::uint64_t seed = 1;

  /// Record the syscall journal (needed for L/D analysis). Full event
  /// logs (Gantt) additionally require `record_events`. The victim's
  /// window needs neither: RoundResult::window_tracker follows it in
  /// every round.
  bool record_journal = false;
  bool record_events = false;

  /// Background kernel-thread load (Section 5's interference source).
  bool background_load = true;

  /// Multi-tenant background workload (DESIGN.md §11): deterministic
  /// user-space tenants — web-server churn, cron bursts, build-job
  /// fan-out, log writers — spawned after the victim so victim/attacker
  /// pids are untouched when the spec is empty. Folded into
  /// scenario_fingerprint() ONLY when non-empty, so every existing
  /// schedule token and golden stays valid.
  programs::BackgroundSpec background;

  /// Use the defended victim variant (fchown/fchmod on the fd instead of
  /// chown/chmod on the path) — the Section 8 remedy. Only meaningful
  /// for the vi and gedit victims.
  bool defended_victim = false;

  /// Victim pre-save activity. Defaults: ~U(0, 2 quanta) on a
  /// uniprocessor (randomizes the slice phase, as real editing does),
  /// ~U(0.2ms, 1ms) on multiprocessors (the phase is irrelevant there).
  std::optional<Duration> victim_think;

  /// Hard stop for one round of simulated time.
  Duration round_limit = Duration::seconds(30);

  /// Deterministic fault plan (empty = no injection, zero overhead). The
  /// injector draws from its own Rng stream seeded off the round seed,
  /// so the kernel's noise stream — and every no-fault statistic — is
  /// untouched by adding or removing a plan.
  sim::FaultPlan faults;

  /// Collect kernel/sched/fs/fault metrics for the round into
  /// RoundResult::metrics (and, via campaigns, CampaignStats::metrics).
  /// Off by default: every producer site is then a single null check and
  /// simulation output is byte-identical to a metrics-free build.
  /// Deliberately excluded from scenario_fingerprint(), like the record
  /// flags: observing a round does not change the scenario.
  bool collect_metrics = false;

  /// Run the happens-before TOCTTOU detector on the round: the kernel
  /// emits its synchronization-event stream (process spawn/exit,
  /// inode-semaphore ownership transfers, event-flag handoffs, syscall
  /// enter/exit) into RoundResult::sync, and run_round() replays it
  /// through detect::analyze_round into RoundResult::detect. Forces the
  /// journal on for the round (detection needs the records) without
  /// changing record_journal's own semantics. Off by default: every
  /// kernel emission site is then a single null check and simulation
  /// output is byte-identical to a detect-free build. Deliberately
  /// excluded from scenario_fingerprint(), like collect_metrics:
  /// observing a round does not change the scenario.
  bool detect = false;

  /// Host wall-clock profile accumulator (nullptr = no profiling).
  /// run_round() brackets its setup/sim/analyze/audit phases and adds
  /// them here. Serial campaigns only — the struct is not thread-safe,
  /// and wall times are intentionally kept out of the deterministic
  /// metrics snapshot (see metrics/profile.h).
  metrics::WallProfile* wall_profile = nullptr;

  /// Overrides the scheduler the round runs under (the explore
  /// subsystem's hook for its choice-point shim). Null = the standard
  /// LinuxLikeScheduler with default_sched_params(). Deliberately
  /// excluded from scenario_fingerprint(): a shim that resolves every
  /// choice the way the policy would IS the same scenario.
  std::function<std::unique_ptr<sim::Scheduler>(const ScenarioConfig&)>
      scheduler_factory;

  /// Watchdog: hard cap on kernel events one round may execute before
  /// RoundRun::step() throws StepBudgetError (0 = unlimited). The
  /// default is far beyond any healthy round (~10^4-10^5 events), so a
  /// livelocked simulation — a program spinning without advancing the
  /// scenario — surfaces as a failed-round anomaly / quarantined
  /// schedule instead of burning the whole round_limit of simulated
  /// time. Excluded from scenario_fingerprint(), like round_limit's
  /// cousins the record flags: previously minted replay tokens stay
  /// valid, and a budget generous enough never to trip is unobservable.
  std::uint64_t step_budget = 100'000'000;

  /// Extra processes spawned into the round AFTER the victim (so victim
  /// and attacker pids — and thus journals, traces, and tokens — are
  /// untouched when the list is empty). Test hook for fault/livelock
  /// scenarios; excluded from scenario_fingerprint() like
  /// scheduler_factory. `make` receives the round's tree. Programs that
  /// should survive checkpoint forking must implement
  /// sim::Program::clone() and must not keep that reference: a fork runs
  /// on its own copy of the tree.
  struct ExtraProgram {
    std::string name = "extra";
    sim::Uid uid = 0;
    sim::Gid gid = 0;
    std::function<std::unique_ptr<sim::Program>(fs::Vfs&)> make;
  };
  std::vector<ExtraProgram> extra_programs;
};

struct RoundResult {
  bool success = false;         // /etc/passwd handed to the attacker
  bool victim_completed = false;
  /// The round stopped at `round_limit` with events still pending.
  /// (A victim can also fail to complete because the event queue
  /// drained — that is a stall, not a time-limit hit.)
  bool hit_time_limit = false;
  bool attacker_finished = false;
  int attacker_iterations = 0;
  std::uint64_t events = 0;
  SimTime end_time;

  /// Filled when record_journal was set, in rounds with an attacker.
  std::optional<WindowMeasurement> window;
  /// The victim's window, tracked live in every round: the kernel feeds
  /// the tracker each completed syscall of the victim, journal or not
  /// (trace/window.h). On a round that records a journal it equals
  /// `window`'s victim side, which analyze_window finds with the same
  /// tracker type. Explore leaves read it and keep no journal. Like the
  /// journal, it is kept out of RoundRun::hash_state.
  trace::WindowTracker window_tracker;
  /// Filled when record_journal/record_events were set.
  trace::RoundTrace trace;

  /// Journal pids for further digging (benches use these).
  trace::Pid victim_pid = 0;
  trace::Pid attacker_pid = 0;
  trace::Pid attacker_pid2 = 0;  // pipelined helper thread

  /// Fault accounting for the round (all-zero when no plan was set),
  /// including program retries and post-round audit findings.
  sim::FaultStats faults;
  /// Post-round VFS invariant audit (runs after every round; empty =
  /// healthy). Recorded, not thrown: a corrupted round is data.
  std::vector<std::string> audit_violations;

  /// Deterministic metrics snapshot (empty unless cfg.collect_metrics):
  /// syscalls by op, context switches, wakeup latency, run-queue depth,
  /// steals, preemptions, path-walk depth, per-inode semaphore waits,
  /// and fault injections by kind.
  metrics::Registry metrics;

  /// Kernel synchronization-event stream and the happens-before
  /// detector's verdicts for the round (both empty unless cfg.detect).
  /// The stream lives here so checkpoint forks copy it with the rest of
  /// the round state (the fork re-attaches the kernel to its own copy).
  detect::SyncLog sync;
  detect::DetectReport detect;

  /// Replay-ready schedule token ("st1:...") pinning the scenario
  /// fingerprint, the round seed, and the victim think time actually
  /// used. `tocttou_cli --replay=TOKEN` re-runs the round; the explore
  /// subsystem appends explicit scheduling choices to the same format.
  std::string schedule_token;
};

RoundResult run_round(const ScenarioConfig& cfg);

/// Reusable round infrastructure, one per thread — a context must never
/// be shared across concurrent rounds. The campaign engine gives each
/// worker its own context, and so does the explorer, which runs
/// thousands of leaves through it.
///
/// The staged file tree is a TEMPLATE: staging draws no randomness, so
/// the context stages the tree once and every round starts from a
/// copy-on-write copy of it (fs::Vfs's copy shares every inode until the
/// round writes one), copy-assigned over the context's one round Vfs.
/// The template is keyed by the exact staging inputs — the cost model,
/// the file size and the tenant spec, compared field by field — and is
/// restaged whenever a round's inputs differ. Every round builds its own
/// kernel, so a round that ends abnormally (killed, or thrown out of
/// step()) leaves nothing behind that the next round's copy does not
/// overwrite. Staging audits the template once; a round copied from a
/// clean template audits only what it changed (fs::Vfs::audit_since),
/// which reports exactly the lines the full audit would.
///
/// A round run in a reused context is observationally identical to one
/// run fresh: same RoundResult, same journal/event trace, same schedule
/// token, same metrics. The round_context ctest locks this down
/// byte-for-byte.
class RoundContext {
 public:
  RoundContext();
  ~RoundContext();

  RoundContext(const RoundContext&) = delete;
  RoundContext& operator=(const RoundContext&) = delete;

  /// Rounds that started from an already-staged template (a round that
  /// stages or restages it counts zero).
  std::uint64_t reuses() const { return reuses_; }

 private:
  friend RoundResult run_round(const ScenarioConfig& cfg, RoundContext* ctx);
  friend class RoundRun;

  struct Template;  // the staged tree and its key (harness.cc)
  std::unique_ptr<const Template> template_;
  /// The current round's copy of the template, reassigned every round.
  std::unique_ptr<fs::Vfs> vfs_;
  std::uint64_t reuses_ = 0;
  /// The last round's journal records and sync events: the next round
  /// reserves them up front instead of growing from empty by doubling.
  std::size_t journal_records_ = 0;
  std::size_t sync_events_ = 0;
};

/// run_round executing inside a caller-provided reusable context
/// (nullptr = construct everything fresh, exactly run_round(cfg)).
RoundResult run_round(const ScenarioConfig& cfg, RoundContext* ctx);

/// Cap on anomaly replay tokens retained per campaign.
inline constexpr int kMaxAnomalyTokens = 8;

struct CampaignStats {
  SuccessCounter success;
  SuccessCounter detected;
  RunningStats laxity_us;      // L over rounds where measurable
  RunningStats detection_us;   // D over rounds where measurable
  RunningStats victim_window_us;
  std::uint64_t total_events = 0;
  /// Rounds hitting the `round_limit` time cap (plus any round that
  /// threw — see `failed_rounds`, a subset of this count).
  int anomalies = 0;
  /// Rounds that threw out of run_round; the campaign records them and
  /// carries on instead of aborting.
  int failed_rounds = 0;
  /// Rounds where the victim stalled: the event queue drained before
  /// the victim exited, with simulated time still under `round_limit`.
  int victim_incomplete = 0;
  /// Rounds with an attacker that never completed its attack.
  int attacker_unfinished = 0;
  /// Aggregated fault-injection accounting (all-zero without a plan;
  /// summary() omits it then, keeping no-fault output byte-identical).
  sim::FaultStats faults;

  /// Merged per-round metrics snapshots (empty unless the campaign ran
  /// with collect_metrics). Blocks merge in fixed order and the metrics
  /// are integer-only, so the result is bit-identical at any --jobs.
  /// summary() never prints it — export via to_json()/to_csv().
  metrics::Registry metrics;

  /// Merged per-round detector reports (empty unless the campaign ran
  /// with cfg.detect). Same determinism contract as `metrics`: blocks
  /// merge in fixed order, so the report — including the retained
  /// findings prefix — is byte-identical at any --jobs.
  detect::DetectReport detect;

  /// Replay tokens for the first few anomalous rounds — rounds that
  /// threw out of run_round, hit the time limit, or stalled — capped at
  /// kMaxAnomalyTokens so a pathological campaign stays bounded. Empty
  /// for a healthy campaign.
  std::vector<std::string> anomaly_tokens;

  /// Folds `other` into this accumulator. Merging per-block stats in
  /// fixed block order reproduces the single-threaded reduction exactly,
  /// which is what makes the parallel campaign engine deterministic.
  void merge(const CampaignStats& other);

  std::string summary() const;
};

/// Runs `rounds` rounds with seeds mix(cfg.seed, i); enables the journal
/// iff `measure_ld` (slower but yields L/D stats).
///
/// `jobs` sizes the worker pool: 1 runs everything on the calling
/// thread, N > 1 shards rounds across N threads, and jobs <= 0 uses the
/// hardware concurrency. Rounds are independently seeded and reduced in
/// fixed block order, so the returned stats are byte-identical for any
/// `jobs` value (same seed => same numbers at any job count).
CampaignStats run_campaign(const ScenarioConfig& cfg, int rounds,
                           bool measure_ld = false, int jobs = 1);

/// The scheduler parameters every round runs under (exported so the
/// explore subsystem can wrap the identical policy in its shim).
sched::LinuxSchedParams default_sched_params(const ScenarioConfig& cfg);

/// The [lo, hi] range the default victim think time is drawn from
/// (exported so the explorer can quantize it into probability buckets).
/// Matches default_think exactly when cfg.victim_think is unset.
std::pair<Duration, Duration> victim_think_range(const ScenarioConfig& cfg);

/// FNV-1a fingerprint over the scenario fields that shape the schedule
/// space: testbed, machine/noise/background parameters, victim,
/// attacker, file size, defenses, the staged paths and attacker ids (the
/// constants above, still hashed so that existing tokens keep their
/// fingerprints), fault plan, round limit.
/// Excludes seed, victim_think, the record flags, collect_metrics,
/// detect, wall_profile, scheduler_factory, step_budget, and
/// extra_programs —
/// those vary across rounds of the SAME scenario (a schedule token pins
/// seed and think itself; a watchdog budget that never trips is
/// unobservable, and tokens from budgeted runs must replay unbudgeted).
/// The multi-tenant `background` spec is folded in ONLY when non-empty,
/// so tokens minted before the field existed keep their fingerprints.
std::uint32_t scenario_fingerprint(const ScenarioConfig& cfg);

/// The DConvention the paper uses for each victim.
DConvention d_convention_for(VictimKind v);

/// The WindowSpec matching a scenario.
WindowSpec window_spec_for(const ScenarioConfig& cfg);

}  // namespace tocttou::core
