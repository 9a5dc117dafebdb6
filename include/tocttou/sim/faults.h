// Deterministic fault injection.
//
// A FaultPlan is a declarative list of FaultSpecs describing adversarial
// conditions to impose on a round: syscall errors (EINTR/ENOSPC/EIO),
// latency spikes at service completion, delayed or lost wakeups, and
// mid-round process kills. The Kernel, alone, consults a per-round
// FaultInjector at well-defined points; every stochastic decision draws
// from the injector's OWN Rng stream (seeded from the round seed), so the
// kernel's noise stream is untouched and campaigns remain byte-identical
// at any --jobs count, with or without a plan.
//
// The no-fault fast path pays nothing: a null injector skips every hook,
// and an all-zero-rate plan makes every decision "no" without perturbing
// kernel state (see DESIGN.md §5 for the determinism contract).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/rng.h"
#include "tocttou/common/time.h"
#include "tocttou/sim/ids.h"

namespace tocttou::sim {

enum class FaultKind {
  syscall_error,  // the op fails at entry with `error`
  latency_spike,  // extra in-kernel time charged at service completion
  wakeup_delay,   // a wakeup is delivered `magnitude` late
  wakeup_drop,    // a wakeup is lost (the process stays blocked)
  kill_process,   // the process exits at its next syscall return
};

const char* to_string(FaultKind k);

/// Which processes a spec applies to. Roles are registered by the
/// harness after spawning; unregistered processes (e.g. background
/// kthreads) match only `any`.
enum class FaultRole { any, victim, attacker };

const char* to_string(FaultRole r);

struct FaultSpec {
  FaultKind kind = FaultKind::syscall_error;
  /// Injection probability per matching occurrence. Ignored when `nth`
  /// is set (nth-targeting is deterministic).
  double rate = 0.0;
  /// syscall_error only: which errno to inject.
  Errno error = Errno::eintr;
  /// latency_spike / wakeup_delay: how long.
  Duration magnitude = Duration::micros(50);
  /// Filter: syscall name ("" = any). syscall_error/latency_spike/
  /// kill_process only.
  std::string op;
  /// Filter: path prefix ("" = any). Path-taking ops only; fd-based ops
  /// (write/close/f*) carry no path and never match a non-empty prefix.
  std::string path_prefix;
  FaultRole role = FaultRole::any;
  /// When > 0: inject exactly on the nth matching occurrence (1-based)
  /// instead of drawing against `rate`. For kill_process the occurrences
  /// counted are the process's syscall returns.
  std::uint64_t nth = 0;
};

/// Per-round (and, merged, per-campaign) fault accounting.
struct FaultStats {
  std::uint64_t errors_injected = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t wakeups_delayed = 0;
  std::uint64_t wakeups_dropped = 0;
  std::uint64_t kills = 0;
  /// Bounded EINTR retries performed by the hardened programs.
  std::uint64_t retries = 0;
  /// Post-round VFS invariant auditor findings.
  std::uint64_t invariant_violations = 0;
  /// Rounds where faults were injected but the victim still completed
  /// within the time limit — survived-the-fault rounds.
  std::uint64_t degraded_rounds = 0;

  std::uint64_t total_injected() const {
    return errors_injected + latency_spikes + wakeups_delayed +
           wakeups_dropped + kills;
  }
  void merge(const FaultStats& other);
  /// Compact one-line report, e.g. "err=3 spike=1 retries=5".
  std::string summary() const;
};

/// An ordered list of FaultSpecs. Parsing grammar (CLI --faults=SPEC):
///
///   plan   := clause (',' clause)*
///   clause := kind ':' rate (':' key '=' value)*
///   kind   := error | spike | wakeup-delay | wakeup-drop | kill
///   keys   := errno=eintr|enospc|eio  op=NAME  path=PREFIX
///             role=victim|attacker|any  nth=N  us=N
///
/// e.g. "error:0.01:errno=eintr:role=victim,spike:0.005:us=200".
struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }
  bool has(FaultKind k) const;
  /// True when no spec can ever fire (all rates 0 and no nth target).
  bool inert() const;

  /// Parses the grammar above; returns false and sets *err on failure.
  static bool parse(const std::string& text, FaultPlan* out,
                    std::string* err);
  std::string describe() const;
};

/// One round's injector. Single-threaded like the round itself; every
/// decision is a pure function of (plan, seed, query sequence), which is
/// what the determinism suite locks down.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Registers a process's role (harness calls this right after spawn).
  void set_role(Pid pid, FaultRole role);

  /// Kernel, at a syscall's first advance (after its libc trap and any
  /// deferred preemption): should this syscall fail at entry? `path` is
  /// ServiceOp::path() ("" for fd-based calls).
  std::optional<Errno> syscall_error(std::string_view op,
                                     std::string_view path, Pid pid);

  /// Kernel, at Step::done: extra latency before the syscall returns
  /// (zero = none).
  Duration completion_spike(std::string_view op, Pid pid);

  enum class WakeFault { none, delay, drop };
  /// Kernel::wake: perturb this wakeup? Writes the delay on `delay`.
  WakeFault wakeup_fault(Pid pid, Duration* delay);

  /// Kernel, once per syscall return (after any spike): kill now?
  bool kill_at_syscall_return(Pid pid);

  /// True when `pid` was fault-killed this round (the harness uses this
  /// to keep killed victims out of the survived-the-fault accounting).
  bool was_killed(Pid pid) const;

  /// True when the plan contains syscall_error specs that can fire —
  /// the kernel skips the entry check entirely otherwise, so a plan
  /// without them queries syscall_error never.
  bool wants_syscall_errors() const { return has_errors_; }

  const FaultStats& stats() const { return stats_; }

 private:
  bool role_matches(const FaultSpec& spec, Pid pid) const;
  /// Occurrence-counts spec `idx` and decides (nth or rate draw).
  bool decide(std::size_t idx);

  FaultPlan plan_;
  Rng rng_;
  bool has_errors_ = false;
  bool has_kills_ = false;
  std::map<Pid, FaultRole> roles_;
  std::vector<std::uint64_t> occurrences_;  // per spec, matches seen
  std::map<Pid, std::uint64_t> syscall_returns_;
  std::vector<Pid> killed_;
  FaultStats stats_;
};

}  // namespace tocttou::sim
