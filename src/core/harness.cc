#include "tocttou/core/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "tocttou/common/strings.h"
#include "tocttou/core/round_run.h"
#include "tocttou/explore/token.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/programs/attackers.h"
#include "tocttou/programs/victims.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::core {

const char* to_string(VictimKind v) {
  switch (v) {
    case VictimKind::vi:
      return "vi";
    case VictimKind::gedit:
      return "gedit";
    case VictimKind::suspending:
      return "suspending";
    case VictimKind::sendmail:
      return "sendmail";
  }
  return "?";
}

const char* to_string(AttackerKind a) {
  switch (a) {
    case AttackerKind::naive:
      return "naive";
    case AttackerKind::prefaulted:
      return "prefaulted";
    case AttackerKind::pipelined:
      return "pipelined";
    case AttackerKind::none:
      return "none";
  }
  return "?";
}

DConvention d_convention_for(VictimKind v) {
  // vi (Table 1) uses the loop-iteration period; gedit (Table 2) the
  // stat-start -> unlink-start interval.
  return v == VictimKind::gedit ? DConvention::stat_to_unlink
                                : DConvention::loop_iteration;
}

WindowSpec window_spec_for(const ScenarioConfig& cfg) {
  switch (cfg.victim) {
    case VictimKind::gedit:
      return WindowSpec::gedit(kWatchedPath);
    case VictimKind::vi:
    case VictimKind::suspending:  // vi's window: open, then chown
      return WindowSpec::vi(kWatchedPath);
    case VictimKind::sendmail: {
      WindowSpec s;
      s.check_call = "lstat";
      s.use_call = "open";
      s.path = kWatchedPath;
      return s;
    }
  }
  return WindowSpec::vi(kWatchedPath);
}

std::pair<Duration, Duration> victim_think_range(const ScenarioConfig& cfg) {
  if (cfg.profile.machine.n_cpus == 1) {
    // Randomize where the save falls within the victim's time slice.
    return {Duration::zero(), cfg.profile.machine.timeslice * 2.0};
  }
  return {Duration::micros(200), Duration::millis(1)};
}

sched::LinuxSchedParams default_sched_params(const ScenarioConfig& cfg) {
  return sched::LinuxSchedParams{cfg.profile.machine.timeslice,
                                 /*wake_preempts_equal_priority=*/true};
}

namespace {

using programs::AttackTarget;

Duration default_think(const ScenarioConfig& cfg, Rng& rng) {
  if (cfg.victim_think) return *cfg.victim_think;
  const auto [lo, hi] = victim_think_range(cfg);
  return rng.uniform_duration(lo, hi);
}

/// The program `pid` runs (an exited process keeps it), as type P.
template <class P>
const P& program_of(const sim::Kernel& kernel, sim::Pid pid) {
  return static_cast<const P&>(kernel.process(pid).program());
}

/// FNV-1a (32-bit) accumulator.
struct Fnv32 {
  std::uint32_t h = 2166136261u;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 16777619u;
    }
  }
  void str(std::string_view s) {
    bytes(s.data(), s.size());
    const char nul = '\0';  // keep ("ab","c") distinct from ("a","bc")
    bytes(&nul, 1);
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
};

}  // namespace

std::uint32_t scenario_fingerprint(const ScenarioConfig& cfg) {
  Fnv32 f;
  const sim::MachineSpec& m = cfg.profile.machine;
  f.str(cfg.profile.name);
  f.i64(m.n_cpus);
  f.f64(m.speed);
  f.i64(m.timeslice.ns());
  f.i64(m.context_switch_cost.ns());
  f.i64(m.wakeup_latency.ns());
  f.i64(m.libc_fault_cost.ns());
  f.f64(m.noise.rel_sigma);
  f.i64(m.noise.tick_period.ns());
  f.i64(m.noise.tick_cost_mean.ns());
  f.i64(m.noise.tick_cost_stdev.ns());
  f.f64(m.noise.softirq_prob);
  f.i64(m.noise.softirq_cost_mean.ns());
  f.i64(m.noise.softirq_cost_stdev.ns());
  f.i64(m.background.enabled ? 1 : 0);
  f.i64(m.background.mean_interval.ns());
  f.i64(m.background.burst_mean.ns());
  f.i64(m.background.burst_stdev.ns());
  f.i64(m.background.priority);
  f.i64(static_cast<std::int64_t>(cfg.victim));
  f.i64(static_cast<std::int64_t>(cfg.attacker));
  f.i64(static_cast<std::int64_t>(cfg.file_bytes));
  f.i64(cfg.background_load ? 1 : 0);
  f.i64(cfg.defended_victim ? 1 : 0);
  f.str(kWatchedPath);
  f.str(kEvilTarget);
  f.str(kDummyPath);
  f.i64(kAttackerUid);
  f.i64(kAttackerGid);
  f.i64(cfg.round_limit.ns());
  f.str(cfg.faults.describe());
  // Multi-tenant spec: folded in only when non-empty, so fingerprints
  // (and thus every schedule token) minted before the field existed —
  // or with tenants off — are unchanged.
  if (!cfg.background.empty()) f.str("bg:" + cfg.background.describe());
  return f.h;
}

namespace {

/// What a round's file tree is staged from, and nothing else: stage()
/// reads only these fields, so equal inputs stage identical trees. This
/// is the key of a RoundContext's template.
struct TreeInputs {
  explicit TreeInputs(const ScenarioConfig& cfg)
      : costs(cfg.profile.costs),
        file_bytes(cfg.file_bytes),
        background(cfg.background) {}

  bool operator==(const TreeInputs&) const = default;

  /// Stages the tree into `vfs` (constructed with `costs`); returns the
  /// inode of kEvilTarget, which judging the round reads.
  fs::Ino stage(fs::Vfs& vfs) const {
    vfs.mkdir_p("/etc", 0, 0, 0755);
    const fs::Ino passwd = vfs.create_file(kEvilTarget, 0, 0, 0644, 1536);
    vfs.mkdir_p("/home/alice", kAttackerUid, kAttackerGid, 0755);
    vfs.mkdir_p("/tmp", 0, 0, 0777);
    vfs.create_file(kWatchedPath, kAttackerUid, kAttackerGid, 0644,
                    file_bytes);
    vfs.create_file(kDummyPath, kAttackerUid, kAttackerGid, 0644, 0);
    programs::stage_background_tree(vfs, background);
    return passwd;
  }

  fs::SyscallCosts costs;
  std::uint64_t file_bytes;
  programs::BackgroundSpec background;
};

}  // namespace

/// A staged tree no round writes: rounds start from copies of `vfs`.
/// It is audited once, here, so that a round copied from a clean
/// template audits only what it changed (Vfs::audit_since).
struct RoundContext::Template {
  explicit Template(TreeInputs in)
      : inputs(std::move(in)), vfs(inputs.costs), passwd(inputs.stage(vfs)),
        clean(vfs.audit().empty()) {}

  TreeInputs inputs;
  fs::Vfs vfs;
  fs::Ino passwd;
  bool clean;
};

RoundContext::RoundContext() = default;
RoundContext::~RoundContext() = default;

RoundResult run_round(const ScenarioConfig& cfg) {
  return run_round(cfg, nullptr);
}

RoundRun::RoundRun(const ScenarioConfig& cfg, RoundContext* ctx)
    : cfg_(cfg), timer_(cfg.wall_profile) {
  RoundResult& res = res_;
  Rng setup_rng(mix_seed(cfg.seed, 0xA11CE));

  // --- file system tree: a copy of the context's template (staged on
  // first use, restaged when the inputs change), or staged here ---
  TreeInputs tree(cfg);
  if (ctx != nullptr) {
    if (ctx->template_ != nullptr && ctx->template_->inputs == tree) {
      ++ctx->reuses_;
    } else {
      // Drop the old tree and the round copy sharing it first, so that
      // the context never holds two full trees.
      ctx->vfs_.reset();
      ctx->template_.reset();
      ctx->template_ =
          std::make_unique<const RoundContext::Template>(std::move(tree));
    }
    if (ctx->vfs_ == nullptr) {
      ctx->vfs_ = std::make_unique<fs::Vfs>(ctx->template_->vfs);
    } else {
      *ctx->vfs_ = ctx->template_->vfs;
    }
    vfs_ = ctx->vfs_.get();
    ctx_ = ctx;
    passwd_ = ctx->template_->passwd;
    if (ctx->template_->clean) audit_base_ = &ctx->template_->vfs;
  } else {
    local_vfs_.emplace(tree.costs);
    vfs_ = &*local_vfs_;
    passwd_ = tree.stage(*vfs_);
  }
  fs::Vfs& vfs = *vfs_;

  // --- fault injector (its own Rng stream; kernel noise untouched) ---
  std::optional<sim::FaultInjector>& injector = injector_;
  if (!cfg.faults.empty()) {
    injector.emplace(cfg.faults, mix_seed(cfg.seed, 0xFA017));
  }

  // --- kernel ---
  res.trace.log_events = cfg.record_events;
  std::unique_ptr<sim::Scheduler> sched;
  if (cfg.scheduler_factory) {
    sched = cfg.scheduler_factory(cfg);
  } else {
    sched =
        std::make_unique<sched::LinuxLikeScheduler>(default_sched_params(cfg));
  }
  kernel_.emplace(cfg.profile.machine, std::move(sched),
                  mix_seed(cfg.seed, 0x5EED));
  sim::Kernel& kernel = *kernel_;
  attach_sinks();
  if (ctx != nullptr) {
    if (kernel.trace() != nullptr) {
      res.trace.journal.reserve(ctx->journal_records_);
    }
    if (cfg.detect) res.sync.reserve(ctx->sync_events_);
  }
  if (cfg.background_load) kernel.start_background_load();

  // --- attacker(s): spawned first — they are waiting for the admin ---
  const auto& t = cfg.profile.timings;
  AttackTarget target{kWatchedPath, kEvilTarget, kDummyPath};
  const Duration loop_comp = (cfg.victim == VictimKind::vi)
                                 ? t.atk_loop_comp_vi
                                 : t.atk_loop_comp_gedit;
  sim::SpawnOptions aopts;
  aopts.name = "attacker";
  aopts.uid = kAttackerUid;
  aopts.gid = kAttackerGid;

  switch (cfg.attacker) {
    case AttackerKind::naive:
      res.attacker_pid =
          kernel.spawn(std::make_unique<programs::NaiveAttacker>(
                           target, loop_comp, t.atk_post_detect_comp, t.retry),
                       aopts);
      break;
    case AttackerKind::prefaulted:
      res.attacker_pid =
          kernel.spawn(std::make_unique<programs::PrefaultedAttacker>(
                           target, t.atk_v2_comp, t.retry),
                       aopts);
      break;
    case AttackerKind::pipelined: {
      const sim::FlagId found = kernel.add_flag("window_found");
      auto main = std::make_unique<programs::PipelinedAttackerMain>(
          target, loop_comp, t.atk_thread_handoff, found, t.retry);
      auto helper = std::make_unique<programs::PipelinedAttackerSymlinker>(
          target, t.atk_thread_handoff, found);
      res.attacker_pid = kernel.spawn(std::move(main), aopts);
      sim::SpawnOptions hopts = aopts;
      hopts.name = "attacker/symlink";
      res.attacker_pid2 = kernel.spawn(std::move(helper), hopts);
      break;
    }
    case AttackerKind::none:
      break;
  }
  if (injector) {
    if (res.attacker_pid != 0) {
      injector->set_role(res.attacker_pid, sim::FaultRole::attacker);
    }
    if (res.attacker_pid2 != 0) {
      injector->set_role(res.attacker_pid2, sim::FaultRole::attacker);
    }
  }

  // --- victim (root) ---
  // setup_rng's ONLY draw: replaying with victim_think pinned from a
  // token therefore reproduces the round bit-for-bit (the draw is simply
  // skipped; nothing downstream shares the stream).
  const Duration think = default_think(cfg, setup_rng);
  {
    explore::ScheduleToken tok;
    tok.fingerprint = scenario_fingerprint(cfg);
    tok.seed = cfg.seed;
    tok.think_ns = think.ns();
    res.schedule_token = tok.serialize();
  }
  sim::SpawnOptions vopts;
  vopts.name = to_string(cfg.victim);
  vopts.uid = 0;
  vopts.gid = 0;
  std::unique_ptr<sim::Program> vic;
  switch (cfg.victim) {
    case VictimKind::vi: {
      programs::ViVictimConfig vc;
      vc.wfname = kWatchedPath;
      vc.backup_name = std::string(kWatchedPath) + "~";
      vc.file_bytes = cfg.file_bytes;
      vc.owner_uid = kAttackerUid;
      vc.owner_gid = kAttackerGid;
      vc.think_time = think;
      vc.fd_attr_remedy = cfg.defended_victim;
      vc.t = t;
      vic = std::make_unique<programs::ViVictim>(vc);
      break;
    }
    case VictimKind::gedit: {
      programs::GeditVictimConfig gc;
      gc.real_filename = kWatchedPath;
      gc.temp_filename = "/home/alice/.goutputstream-sim";
      gc.backup_name = std::string(kWatchedPath) + "~";
      gc.file_bytes = cfg.file_bytes;
      gc.owner_uid = kAttackerUid;
      gc.owner_gid = kAttackerGid;
      gc.think_time = think;
      gc.fd_attr_remedy = cfg.defended_victim;
      gc.t = t;
      vic = std::make_unique<programs::GeditVictim>(gc);
      break;
    }
    case VictimKind::suspending: {
      programs::SuspendingVictimConfig sc;
      sc.path = kWatchedPath;
      sc.owner_uid = kAttackerUid;
      sc.owner_gid = kAttackerGid;
      sc.think_time = think;
      vic = std::make_unique<programs::SuspendingVictim>(sc);
      break;
    }
    case VictimKind::sendmail: {
      programs::SendmailVictimConfig mc;
      mc.mailbox = kWatchedPath;
      mc.think_time = think;
      vic = std::make_unique<programs::SendmailVictim>(mc);
      break;
    }
  }
  victim_pid_ = kernel.spawn(std::move(vic), vopts);
  res.victim_pid = victim_pid_;
  res.window_tracker = trace::WindowTracker(victim_pid_, window_spec_for(cfg));
  if (injector) injector->set_role(victim_pid_, sim::FaultRole::victim);

  // --- multi-tenant background load: spawned after the victim so
  // victim/attacker pids (and thus journals, traces, and tokens) match
  // the tenant-free scenario exactly when the spec is empty. Tenants
  // loop forever; the round still ends when the victim exits. ---
  programs::spawn_background_tenants(kernel, cfg.background);

  // --- extra programs (test hook): spawned last so victim/attacker pids
  // match the plain scenario exactly ---
  for (const ScenarioConfig::ExtraProgram& ep : cfg.extra_programs) {
    TOCTTOU_CHECK(static_cast<bool>(ep.make), "extra program lacks a factory");
    sim::SpawnOptions eopts;
    eopts.name = ep.name;
    eopts.uid = ep.uid;
    eopts.gid = ep.gid;
    kernel.spawn(ep.make(vfs), eopts);
  }

  timer_.lap(&metrics::WallProfile::setup_ns);
  limit_ = SimTime::origin() + cfg.round_limit;
}

RoundRun::RoundRun(const RoundRun& o)
    : cfg_(o.cfg_),
      res_(o.res_),
      timer_(nullptr),  // the parent keeps the wall profile
      local_vfs_(*o.vfs_),
      vfs_(&*local_vfs_),
      injector_(o.injector_),
      kernel_(o.kernel_),
      passwd_(o.passwd_),
      victim_pid_(o.victim_pid_),
      phase_(o.phase_),
      limit_(o.limit_),
      drain_limit_(o.drain_limit_) {
  attach_sinks();
}

RoundRun::~RoundRun() = default;

void RoundRun::attach_sinks() {
  sim::Kernel& kernel = *kernel_;
  // Detection replays the journal against the sync stream, so it needs
  // the records even when the caller did not ask for them.
  const bool tracing =
      cfg_.record_journal || cfg_.record_events || cfg_.detect;
  kernel.set_vfs(vfs_);
  kernel.set_trace(tracing ? &res_.trace : nullptr);
  kernel.set_metrics(cfg_.collect_metrics ? &res_.metrics : nullptr);
  kernel.set_sync_log(cfg_.detect ? &res_.sync : nullptr);
  kernel.set_window_tracker(&res_.window_tracker);
  kernel.set_fault_injector(injector_ ? &*injector_ : nullptr);
}

bool RoundRun::attackers_exited() const {
  if (!kernel_->process(res_.attacker_pid).exited()) return false;
  return res_.attacker_pid2 == 0 ||
         kernel_->process(res_.attacker_pid2).exited();
}

void RoundRun::end_victim_phase(bool victim_done) {
  res_.victim_completed = victim_done;
  // run_until returns false for both "limit exceeded" and "queue
  // drained"; only the former is a time-limit hit.
  res_.hit_time_limit = !victim_done && !kernel_->idle();
  if (cfg_.attacker != AttackerKind::none) {
    phase_ = Phase::drain;
    drain_limit_ = min(limit_, kernel_->now() + Duration::millis(2));
  } else {
    end_sim();
  }
}

void RoundRun::end_sim() {
  res_.end_time = kernel_->now();
  res_.events = kernel_->events_executed();
  timer_.lap(&metrics::WallProfile::sim_ns);
  phase_ = Phase::sim_over;
}

bool RoundRun::step() {
  // Watchdog: a round that executes this many kernel events without
  // finishing is livelocked (healthy rounds take orders of magnitude
  // fewer). Checked only when another event is about to run, so a round
  // that ends exactly at the budget still finishes normally.
  const auto check_budget = [this] {
    if (cfg_.step_budget != 0 &&
        kernel_->events_executed() >= cfg_.step_budget) {
      throw StepBudgetError(strfmt(
          "round exceeded its kernel step budget (%llu events executed, "
          "budget %llu): livelocked simulation",
          static_cast<unsigned long long>(kernel_->events_executed()),
          static_cast<unsigned long long>(cfg_.step_budget)));
    }
  };
  // Each phase mirrors one of run_round's historical run_until calls:
  // stop condition first, then queue-drained, then the time limit, then
  // one event — so a stepped round is byte-identical to a run_until one.
  while (true) {
    switch (phase_) {
      case Phase::victim:
        if (kernel_->process(victim_pid_).exited()) {
          end_victim_phase(true);
          continue;
        }
        if (kernel_->idle() || kernel_->next_event_time() > limit_) {
          end_victim_phase(false);
          continue;
        }
        check_budget();
        kernel_->step();
        return true;
      case Phase::drain:
        if (attackers_exited() || kernel_->idle() ||
            kernel_->next_event_time() > drain_limit_) {
          end_sim();
          continue;
        }
        check_budget();
        kernel_->step();
        return true;
      case Phase::sim_over:
        return false;
    }
  }
}

void RoundRun::hash_state(StateHasher& h) const {
  if (injector_.has_value()) h.mark_unhashable();
  h.u32(static_cast<std::uint32_t>(phase_));
  h.time(limit_);
  h.time(drain_limit_);
  vfs_->hash_state(h);
  kernel_->hash_state(h);
}

RoundResult RoundRun::finish() {
  while (step()) {
  }
  RoundResult& res = res_;
  const ScenarioConfig& cfg = cfg_;
  if (ctx_ != nullptr) {
    ctx_->journal_records_ = res.trace.journal.records().size();
    ctx_->sync_events_ = res.sync.events().size();
  }

  // --- judge ---
  const fs::Inode& pw = vfs_->inode(passwd_);
  res.success = (pw.uid() == kAttackerUid);
  if (cfg.victim == VictimKind::sendmail) {
    // sendmail success = the message bytes were appended to /etc/passwd.
    res.success = (pw.size_bytes() > 1536);
  }
  // The attackers' statuses: each pipelined thread holds its part (the
  // helper sets attack_done, the main thread counts iterations).
  int retries = 0;  // the programs' EINTR retries, for the fault stats
  for (const sim::Pid pid : {res.attacker_pid, res.attacker_pid2}) {
    if (pid == 0) continue;
    const programs::AttackerStatus& st =
        program_of<programs::Attacker>(*kernel_, pid).status();
    res.attacker_finished = res.attacker_finished || st.attack_done;
    res.attacker_iterations += st.iterations;
    retries += st.retries;
  }
  if (cfg.victim == VictimKind::vi) {
    retries += program_of<programs::ViVictim>(*kernel_, victim_pid_).retries();
  } else if (cfg.victim == VictimKind::gedit) {
    retries +=
        program_of<programs::GeditVictim>(*kernel_, victim_pid_).retries();
  }

  if (cfg.record_journal && cfg.attacker != AttackerKind::none) {
    res.window =
        analyze_window(res.trace.journal, victim_pid_, res.attacker_pid,
                       window_spec_for(cfg), d_convention_for(cfg.victim));
  }

  // --- happens-before race detection over the recorded streams ---
  if (cfg.detect) {
    res.detect = detect::analyze_round(res.sync, res.trace.journal);
    if (cfg.collect_metrics) {
      res.metrics.count("detect.sync_events",
                        static_cast<std::int64_t>(res.sync.events().size()));
      res.metrics.count("detect.windows",
                        static_cast<std::int64_t>(res.detect.windows));
      res.metrics.count("detect.mutations",
                        static_cast<std::int64_t>(res.detect.mutations));
      res.metrics.count("detect.races",
                        static_cast<std::int64_t>(res.detect.races));
      if (res.detect.races > 0) res.metrics.count("detect.rounds_flagged");
    }
  }

  // --- post-round robustness accounting ---
  timer_.lap(&metrics::WallProfile::analyze_ns);
  res.audit_violations = audit_base_ != nullptr
                             ? vfs_->audit_since(*audit_base_)
                             : vfs_->audit();
  timer_.lap(&metrics::WallProfile::audit_ns);
  if (injector_) {
    res.faults = injector_->stats();
    res.faults.retries += static_cast<std::uint64_t>(retries);
    // A fault-killed victim also "exits", but it did not survive: keep
    // it out of the survived-the-fault accounting.
    if (res.faults.total_injected() > 0 && res.victim_completed &&
        !injector_->was_killed(victim_pid_)) {
      res.faults.degraded_rounds = 1;  // survived the injected faults
    }
  }
  res.faults.invariant_violations += res.audit_violations.size();
  if (cfg.collect_metrics) {
    const sim::FaultStats& f = res.faults;
    if (f.errors_injected > 0) {
      res.metrics.count("faults.injected.error", f.errors_injected);
    }
    if (f.latency_spikes > 0) {
      res.metrics.count("faults.injected.spike", f.latency_spikes);
    }
    if (f.wakeups_delayed > 0) {
      res.metrics.count("faults.injected.wakeup_delay", f.wakeups_delayed);
    }
    if (f.wakeups_dropped > 0) {
      res.metrics.count("faults.injected.wakeup_drop", f.wakeups_dropped);
    }
    if (f.kills > 0) res.metrics.count("faults.injected.kill", f.kills);
    if (f.retries > 0) res.metrics.count("faults.retries", f.retries);
  }
  timer_.finish();
  return std::move(res_);
}

RoundResult run_round(const ScenarioConfig& cfg, RoundContext* ctx) {
  RoundRun run(cfg, ctx);
  return run.finish();
}

namespace {

// Rounds are sharded into fixed-size blocks whose boundaries depend only
// on the round count — never on the worker count. Each block accumulates
// a private CampaignStats in round-index order, and the blocks merge in
// block-index order, so the reduction performs the identical arithmetic
// for any `jobs` value and the result is byte-for-byte reproducible.
constexpr int kBlockRounds = 8;

CampaignStats run_block(const ScenarioConfig& cfg, int begin, int end,
                        bool measure_ld, RoundContext* ctx) {
  CampaignStats stats;
  for (int i = begin; i < end; ++i) {
    ScenarioConfig round_cfg = cfg;
    round_cfg.seed = mix_seed(cfg.seed, static_cast<std::uint64_t>(i));
    round_cfg.record_journal = measure_ld;
    round_cfg.record_events = false;
    RoundResult r;
    try {
      r = run_round(round_cfg, ctx);
    } catch (const std::exception&) {
      // A round that blows an internal invariant is an anomaly to
      // report, not a reason to lose the rest of the campaign. Record a
      // replay token so the round can be re-run under a debugger; the
      // seed alone pins it (think is re-derived from the seed).
      ++stats.failed_rounds;
      ++stats.anomalies;
      if (static_cast<int>(stats.anomaly_tokens.size()) < kMaxAnomalyTokens) {
        explore::ScheduleToken tok;
        tok.fingerprint = scenario_fingerprint(round_cfg);
        tok.seed = round_cfg.seed;
        stats.anomaly_tokens.push_back(tok.serialize());
      }
      continue;
    }
    stats.success.record(r.success);
    stats.total_events += r.events;
    stats.faults.merge(r.faults);
    stats.metrics.merge(r.metrics);
    stats.detect.merge(r.detect);
    if (r.hit_time_limit) ++stats.anomalies;
    if (!r.victim_completed && !r.hit_time_limit) ++stats.victim_incomplete;
    if ((r.hit_time_limit || !r.victim_completed) &&
        static_cast<int>(stats.anomaly_tokens.size()) < kMaxAnomalyTokens) {
      stats.anomaly_tokens.push_back(r.schedule_token);
    }
    if (cfg.attacker != AttackerKind::none && !r.attacker_finished) {
      ++stats.attacker_unfinished;
    }
    if (r.window) {
      stats.detected.record(r.window->detected);
      if (r.window->window_found) {
        stats.victim_window_us.add(r.window->victim_window().us());
      }
      if (r.window->laxity) stats.laxity_us.add(r.window->laxity->us());
      if (r.window->d) stats.detection_us.add(r.window->d->us());
    }
  }
  return stats;
}

}  // namespace

void CampaignStats::merge(const CampaignStats& other) {
  success.merge(other.success);
  detected.merge(other.detected);
  laxity_us.merge(other.laxity_us);
  detection_us.merge(other.detection_us);
  victim_window_us.merge(other.victim_window_us);
  total_events += other.total_events;
  anomalies += other.anomalies;
  failed_rounds += other.failed_rounds;
  victim_incomplete += other.victim_incomplete;
  attacker_unfinished += other.attacker_unfinished;
  faults.merge(other.faults);
  metrics.merge(other.metrics);
  detect.merge(other.detect);
  for (const std::string& t : other.anomaly_tokens) {
    if (static_cast<int>(anomaly_tokens.size()) >= kMaxAnomalyTokens) break;
    anomaly_tokens.push_back(t);
  }
}

CampaignStats run_campaign(const ScenarioConfig& cfg, int rounds,
                           bool measure_ld, int jobs) {
  CampaignStats stats;
  if (rounds <= 0) return stats;

  const int n_blocks = (rounds + kBlockRounds - 1) / kBlockRounds;
  int workers = jobs > 0
                    ? jobs
                    : static_cast<int>(std::thread::hardware_concurrency());
  workers = std::clamp(workers, 1, n_blocks);

  // Wall profiling is serial-only: concurrent rounds would race on the
  // accumulator and interleave phase brackets into noise.
  ScenarioConfig serial_cfg;
  const ScenarioConfig* run_cfg = &cfg;
  if (workers > 1 && cfg.wall_profile != nullptr) {
    serial_cfg = cfg;
    serial_cfg.wall_profile = nullptr;
    run_cfg = &serial_cfg;
  }

  std::vector<CampaignStats> blocks(static_cast<std::size_t>(n_blocks));
  std::atomic<int> next_block{0};
  const auto work = [&] {
    // One reusable context per worker: its rounds start from one staged
    // template tree. run_round in a reused context is byte-identical to
    // a fresh one (round_context ctest), so the campaign's determinism
    // contract is untouched.
    RoundContext ctx;
    for (int b = next_block.fetch_add(1, std::memory_order_relaxed);
         b < n_blocks;
         b = next_block.fetch_add(1, std::memory_order_relaxed)) {
      const int begin = b * kBlockRounds;
      blocks[static_cast<std::size_t>(b)] =
          run_block(*run_cfg, begin, std::min(rounds, begin + kBlockRounds),
                    measure_ld, &ctx);
    }
  };
  if (workers == 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }

  for (const CampaignStats& b : blocks) stats.merge(b);
  return stats;
}

std::string CampaignStats::summary() const {
  const auto [lo, hi] = success.wilson95();
  std::string out = strfmt(
      "success %zu/%zu = %.1f%% (95%% CI %.1f-%.1f%%)",
      success.successes(), success.trials(), success.rate() * 100.0,
      lo * 100.0, hi * 100.0);
  if (!laxity_us.empty()) {
    out += strfmt("; L=%.1f±%.2fus", laxity_us.mean(), laxity_us.stdev());
  }
  if (!detection_us.empty()) {
    out += strfmt("%sD=%.1f±%.2fus", laxity_us.empty() ? "; " : " ",
                  detection_us.mean(), detection_us.stdev());
  }
  if (anomalies > 0) out += strfmt("; anomalies=%d", anomalies);
  if (failed_rounds > 0) out += strfmt(" (failed=%d)", failed_rounds);
  if (victim_incomplete > 0) {
    out += strfmt("; victim-incomplete=%d", victim_incomplete);
  }
  // Only mention faults when something actually happened, so no-fault
  // campaign output stays byte-identical to builds without this feature.
  if (faults.total_injected() > 0 || faults.retries > 0 ||
      faults.invariant_violations > 0) {
    out += "; " + faults.summary();
  }
  return out;
}

}  // namespace tocttou::core
