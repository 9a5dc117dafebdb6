// RoundRun: one attack round as a steppable, clonable object.
//
// run_round() stages a round and drives it to completion in one call;
// RoundRun splits that same lifecycle into construct (stage everything,
// spawn the processes), step() (execute exactly one kernel event), and
// finish() (judge, analyze, audit — producing the RoundResult). Driving
// a RoundRun to completion is byte-identical to run_round() on the same
// config: same result fields, same journal, same metrics, same token.
//
// Constructed in a RoundContext, a round starts from a copy-on-write copy
// of the context's staged template tree instead of staging its own; with
// no context it stages the tree itself. Either way it builds and owns its
// kernel. The template is audited once when it is staged; a round copied
// from a clean template audits only the inodes and references it changed
// (fs::Vfs::audit_since), every other round audits its whole tree.
//
// The copy constructor is a CHECKPOINT FORK: it copies the entire
// mid-round simulation — the VFS's inode table (pointers to inodes it
// shares copy-on-write with the parent) and fd tables, kernel run
// queues and in-flight syscall state machines, pending events, program
// state, fault injector, the victim-window tracker, and the journal and
// metrics streams of a round that records them (an explore leaf records
// no journal unless an observer or the detector reads it) — rebinding
// every cross-object pointer through a CloneMap (ops and programs
// through their field lists, sim/fields.h; inodes and semaphores hold
// none; the kernel's tracker and stream pointers point into the
// RoundResult, whose range the fork registers first). The
// clone is self-owning (never tied to a RoundContext) and stepping it is
// byte-identical to re-running the prefix that produced the original.
// The explore subsystem forks thousands of children off shared schedule
// prefixes this way instead of re-simulating each prefix from scratch;
// DESIGN.md §6 states the determinism contract.
#pragma once

#include <chrono>
#include <memory>
#include <optional>

#include "tocttou/core/harness.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::programs {
class NaiveAttacker;
class PrefaultedAttacker;
class ViVictim;
class GeditVictim;
struct PipelinedAttackState;
}

namespace tocttou::core {

class RoundRun {
 public:
  /// Stages the round exactly like run_round(): takes the file tree
  /// (a copy of `ctx`'s template, or staged here when `ctx` is nullptr),
  /// builds the kernel with the injector, metrics and sync sinks
  /// attached, spawns attacker(s) and victim — same contract as
  /// run_round.
  explicit RoundRun(const ScenarioConfig& cfg, RoundContext* ctx = nullptr);

  /// Checkpoint fork (see file comment). The clone detaches from any
  /// RoundContext and from wall-clock profiling (a forked child must not
  /// double-count the parent's wall profile).
  RoundRun(const RoundRun& o);
  RoundRun& operator=(const RoundRun&) = delete;
  ~RoundRun();

  /// Executes exactly one kernel event; returns false once the round's
  /// simulation is over (victim phase and attacker drain complete).
  /// Phase transitions replicate run_round's run_until calls exactly.
  bool step();

  /// True once step() has nothing left to do.
  bool sim_over() const { return phase_ == Phase::sim_over; }

  /// Judges the round and returns the result; call at most once, after
  /// which the RoundRun is spent. Drives any remaining steps first.
  RoundResult finish();

  /// Events executed so far (monotone across step() calls).
  std::uint64_t events_executed() const { return kernel_->events_executed(); }

  /// Current simulated time (the prefix a checkpoint fork skips).
  SimTime now() const { return kernel_->now(); }

  /// The round's kernel (the explorer rebinds the cloned scheduler's
  /// choice slot when a retained checkpoint migrates across workers).
  sim::Kernel& kernel() { return *kernel_; }

  /// Canonical digest of the full simulation state (DESIGN.md §10):
  /// round phase, Vfs, kernel (event queue, rng, processes, scheduler),
  /// and the pipelined attackers' shared state. Rounds with fault
  /// injection are unhashable (h.hashable() comes back false). Two
  /// RoundRuns with equal hashable digests step identically from here on
  /// under the same policy.
  void hash_state(StateHasher& h) const;

 private:
  // Wall-clock phase bracketing for ScenarioConfig::wall_profile. All
  // calls are no-ops when profiling is off, so the normal path pays one
  // branch per phase boundary and zero clock reads.
  class PhaseTimer {
   public:
    using Clock = std::chrono::steady_clock;

    explicit PhaseTimer(metrics::WallProfile* out) : out_(out) {
      if (out_ != nullptr) start_ = last_ = Clock::now();
    }

    void lap(std::uint64_t metrics::WallProfile::* field) {
      if (out_ == nullptr) return;
      const auto t = Clock::now();
      out_->*field += ns_between(last_, t);
      last_ = t;
    }

    void finish() {
      if (out_ == nullptr) return;
      ++out_->rounds;
      out_->total_ns += ns_between(start_, Clock::now());
    }

   private:
    static std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
              .count());
    }

    metrics::WallProfile* out_;
    Clock::time_point start_;
    Clock::time_point last_;
  };

  enum class Phase { victim, drain, sim_over };

  bool attackers_exited() const;
  void end_victim_phase(bool victim_done);
  void end_sim();

  ScenarioConfig cfg_;
  RoundResult res_;
  PhaseTimer timer_;

  // Simulation state. vfs_ targets either the RoundContext's round Vfs
  // or local_vfs_ (fresh rounds and every clone). The kernel, declared
  // last, is destroyed first: its programs hold pointers into the rest.
  std::optional<fs::Vfs> local_vfs_;
  fs::Vfs* vfs_ = nullptr;
  std::optional<sim::FaultInjector> injector_;
  std::unique_ptr<programs::PipelinedAttackState> pipeline_state_;
  std::optional<sim::Kernel> kernel_;

  // The context the round runs in, told the round's journal and sync
  // log sizes at finish() (null for fresh rounds and every clone).
  RoundContext* ctx_ = nullptr;

  // Staged handles the judge/audit phase reads. audit_base_ is the
  // context's template when it audited clean: finish() then audits only
  // what the round changed. Rounds staged here and checkpoint forks
  // (which can outlive the template) keep it null and audit every inode.
  const fs::Vfs* audit_base_ = nullptr;
  fs::Ino passwd_ = 0;
  sim::Pid victim_pid_ = 0;
  const programs::NaiveAttacker* naive_ = nullptr;
  const programs::PrefaultedAttacker* prefaulted_ = nullptr;
  const programs::ViVictim* vi_vic_ = nullptr;
  const programs::GeditVictim* gedit_vic_ = nullptr;

  // Phase machine.
  Phase phase_ = Phase::victim;
  SimTime limit_;
  SimTime drain_limit_;
};

}  // namespace tocttou::core
