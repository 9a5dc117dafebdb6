// Online happens-before TOCTTOU race detector.
//
// analyze_round() replays one round's SyncLog through per-process
// vector clocks (exp-drd style) — flat rows of counters as wide as the
// round's process count — and positions every journaled syscall inside
// the resulting causal order via the sc_enter/sc_exit bracket whose exit
// names it. It rediscovers <check, use> windows per process with the
// window finder in classify.h, and flags every window that is CONCURRENT
// with an attacker-writable mutation of the same resolved pathname (or
// of the inode the check observed, catching symlink-aliased paths).
// Names are matched by the journal's string ids (trace/journal.h), and
// the mutations are indexed by name and by inode, so a window visits
// only the other processes' mutations that can match it, in journal
// order. Text is made only for the report: one key per pair shape and
// the findings' fields.
//
// Race predicate: window <C, U> of victim P races mutation M of
// attacker Q iff NOT (M happens-before C) and NOT (U happens-before M).
// A mutation the kernel serialized INSIDE the window (e.g. ordered
// after the check by the inode semaphore) still races — that is
// exactly a landed attack. Only mutations provably complete before the
// check begins, or provably begun after the use completes, are
// suppressed; the suppression reason is counted for the false-positive
// audit.
//
// Determinism: the replay is a single pass over one append-ordered log
// plus ordered scans of the journal, so for a fixed round the report is
// byte-identical across runs, jobs counts, and checkpoint forking.
// DetectReport::merge is associative, and campaigns merge per-round
// reports in fixed block order — campaign-level output is therefore
// byte-identical at any --jobs (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tocttou/common/time.h"
#include "tocttou/detect/sync.h"
#include "tocttou/trace/journal.h"

namespace tocttou::detect {

/// One flagged <check, use> x mutation triple.
struct RaceFinding {
  trace::Pid victim = 0;
  std::string check_call;  // e.g. "open"
  std::string use_call;    // e.g. "chown"
  std::string path;        // resolved pathname the window covers
  SimTime check_exit;
  SimTime use_enter;

  trace::Pid mutator = 0;
  std::uint32_t mutator_uid = 0;
  std::string mutator_call;  // e.g. "unlink" / "symlink"
  SimTime mutation_enter;

  /// Happens-before position of the mutation relative to the window
  /// (both false = truly concurrent, no ordering edge either way).
  bool ordered_after_check = false;
  bool ordered_before_use = false;

  /// "check,use" — the pair shape this finding rediscovered.
  std::string pair_key() const { return check_call + "," + use_call; }
  /// Human-readable happens-before justification for the verdict.
  std::string justification() const;
};

/// Findings retained verbatim per report; counters stay exact past the
/// cap (mirrors core::kMaxAnomalyTokens — merged in deterministic
/// order, so the retained prefix is jobs-invariant).
inline constexpr int kMaxFindings = 64;

struct DetectReport {
  std::uint64_t rounds = 0;       // rounds analyzed
  std::uint64_t sync_events = 0;  // kernel sync events replayed
  std::uint64_t windows = 0;      // <check, use> windows discovered
  std::uint64_t mutations = 0;    // attacker-writable successful mutations
  std::uint64_t races = 0;        // flagged window x mutation triples
  std::uint64_t rounds_with_race = 0;

  /// Windows / races per rediscovered pair shape, keyed "check,use".
  std::map<std::string, std::uint64_t> pair_windows;
  std::map<std::string, std::uint64_t> pair_races;
  /// Window-matching mutations SUPPRESSED by happens-before, keyed by
  /// reason ("mutation-before-check" / "use-before-mutation") — the
  /// denominator of the false-positive audit.
  std::map<std::string, std::uint64_t> ordered_mutations;

  /// First kMaxFindings findings in merge order.
  std::vector<RaceFinding> findings;

  bool empty() const { return rounds == 0; }
  void merge(const DetectReport& other);

  /// One-line campaign summary ("N races over W windows ...").
  std::string summary() const;
  /// CSV of the retained findings (RFC 4180 escaping, stable column
  /// order) — what --detect=csv:FILE writes.
  std::string to_csv() const;
};

/// Replays one round. `journal` must have been recorded alongside
/// `sync` in the same round: every record must be named by exactly one
/// sc_exit of its own process (checked).
DetectReport analyze_round(const SyncLog& sync,
                           const trace::SyscallJournal& journal);

}  // namespace tocttou::detect
