// SweepJournal: durable progress for long explorations.
//
// An append-only, CRC-framed on-disk log of completed leaf batches. The
// explorer writes one batch record per reduction batch (canonical key ->
// serialized LeafRecord for every leaf EXECUTED in that batch) and
// flushes it before starting the next, so a sweep killed at any moment —
// SIGTERM, OOM kill, power loss — loses at most the batch in flight.
//
// Resuming (--resume=FILE) replays the journal into the explorer's
// outcome store before the sweep starts: every journaled schedule
// reduces from its stored outcome instead of re-executing, in the same
// canonical order, with the same arithmetic — the final ExploreResult
// (and the CLI report printed from it) is byte-identical to an
// uninterrupted run at any --explore-jobs value. DESIGN.md §8 states
// what the byte-identity contract covers.
//
// File format (all integers little-endian):
//
//   magic "TSWPJRN1" (8 bytes)
//   record*          [u32 payload_len][u32 crc32(payload)][payload]
//
// The first record must be a header ('H') pinning the format version
// and the exploration identity (scenario fingerprint, seed, mode,
// buckets, bound, caps, step budget...). Resume refuses a journal whose
// header does not match the current run — silently mixing two sweeps
// would corrupt the reduction. Batch records ('B') carry the leaves; a
// stop record ('S') marks a graceful interruption (informational). A
// torn or corrupt tail — short record, bad CRC, unparseable payload —
// is truncated on resume: everything before it is intact by
// construction.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tocttou/explore/choice_source.h"
#include "tocttou/explore/resilience.h"
#include "tocttou/explore/token.h"

namespace tocttou::explore {

/// Everything a leaf round contributes to the reduction, compacted so a
/// whole wave of outcomes stays cheap to hold and small to journal (the
/// RoundResult with its syscall journal is dropped inside the worker).
/// This is the unit of durability: re-reducing a stored LeafRecord is
/// deterministically identical to re-executing the leaf.
struct LeafRecord {
  bool prefix_ok = false;
  bool success = false;
  std::optional<double> window_us;
  /// Quarantine tag; none for a leaf that completed normally. A
  /// quarantined leaf has empty sites (no expansion) and `choices`
  /// holding the forced prefix its replay token is minted from.
  ErrorKind error = ErrorKind::none;
  std::vector<SiteRecord> sites;
  std::vector<Choice> choices;
  /// Checkpoint mode: the 1-based kernel event index at which each site
  /// resolved — site j's children fork from the parent's state after
  /// site_events[j] - 1 events. Empty when checkpointing is off (a
  /// resumed checkpoint-on run falls back to full replay for such
  /// parents).
  std::vector<std::uint64_t> site_events;
  // PCT extras.
  int pct_procs = 0;
  int pct_steps = 0;

  bool operator==(const LeafRecord&) const = default;
};

class SweepJournal {
 public:
  /// The exploration identity pinned by the header record. Everything
  /// that shapes WHICH schedules exist and what their outcomes are —
  /// deliberately NOT jobs or the checkpoint flag, which the determinism
  /// contract guarantees are invisible in outcomes (a journal written at
  /// --explore-jobs=4 --explore-checkpoint=off resumes fine at
  /// --explore-jobs=1 --explore-checkpoint=on).
  struct Meta {
    std::uint32_t fingerprint = 0;
    std::uint64_t seed = 0;
    std::uint8_t mode = 0;  // ExploreMode
    std::int32_t think_buckets = 0;
    std::int32_t preemption_bound = 0;
    std::int32_t max_schedules = 0;
    /// Pinned victim think (ns), INT64_MIN when drawn per bucket.
    std::int64_t think_ns = INT64_MIN;
    std::uint64_t step_budget = 0;
    // PCT identity.
    std::int32_t pct_depth = 0;
    std::int32_t pct_schedules = 0;
    std::int32_t pct_expected_steps = 0;
    std::uint64_t pct_seed = 0;

    bool operator==(const Meta&) const = default;
  };

  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Creates a fresh journal at `path` (truncating any existing file)
  /// and writes the header. Returns null with `*err` set on I/O failure.
  static std::unique_ptr<SweepJournal> create(const std::string& path,
                                              const Meta& meta,
                                              std::string* err);

  /// Opens an existing journal for resumption: validates the header
  /// against `meta`, loads every intact batch's (canonical key, record)
  /// pairs into `out`, truncates any corrupt tail, and reopens for
  /// appending. A missing file degrades to create() — "resume" from
  /// nothing is an empty resume, which makes scripted
  /// kill/resume loops idempotent. Returns null with `*err` set when the
  /// file exists but was written by a different exploration (header
  /// mismatch) or cannot be read.
  static std::unique_ptr<SweepJournal> resume(
      const std::string& path, const Meta& meta,
      std::vector<std::pair<std::string, LeafRecord>>* out,
      std::string* err);

  /// Appends one completed batch and flushes it to disk. Keys are the
  /// canonical schedule ids the explorer's outcome store uses. A write
  /// failure (ENOSPC, EIO) latches error() and disables further writes —
  /// the sweep itself carries on, it just stops being resumable past this
  /// point.
  void append_batch(
      const std::vector<std::pair<std::string, const LeafRecord*>>& leaves);

  /// Appends the graceful-stop marker (SIGINT/SIGTERM/deadline path):
  /// 'S' and the sweep's rounds executed so far, which resume skips.
  void append_stop(std::uint64_t rounds_executed);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }
  std::uint64_t batches_written() const { return batches_; }

 private:
  SweepJournal() = default;

  void append_record(const std::string& payload);

  std::string path_;
  // Opaque stream handle (keeps <fstream> out of this header).
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string error_;
  std::uint64_t batches_ = 0;
};

}  // namespace tocttou::explore
