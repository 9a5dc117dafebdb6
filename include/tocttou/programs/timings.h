// Calibrated per-program computation gaps.
//
// These are the user-mode "comp" segments between the victims' and
// attackers' syscalls — the quantities the paper measures directly:
// gedit's rename->chmod gap (43us on the SMP Xeon vs. 3us on the
// Pentium D, Section 6), the attacker's detection-loop cost (the D of
// formula (1)), and attack program v1's post-detection computation
// (11us) that, together with the 6us libc page-fault trap, loses the
// multi-core race in Figure 8.
#pragma once

#include <cstdint>
#include <optional>
#include <tuple>

#include "tocttou/common/error.h"
#include "tocttou/common/time.h"

namespace tocttou::programs {

/// Bounded retry-with-backoff for EINTR, as a well-written program would
/// do around interruptible syscalls. The backoff is user-mode busy
/// computation (victims sleep; attackers spin), so it shows up in traces
/// as ordinary comp segments.
struct RetryPolicy {
  /// Total tries, including the first. 1 = never retry.
  int max_attempts = 4;
  Duration initial_backoff = Duration::micros(50);
  double backoff_mult = 2.0;

  /// Backoff before retry number `attempt` (1-based).
  Duration backoff_for(int attempt) const {
    Duration d = initial_backoff;
    for (int i = 1; i < attempt; ++i) d = d * backoff_mult;
    return d;
  }

  /// The retry rule, after a call returned `e`: on EINTR with a try left,
  /// counts the retry in `attempt` and `retries` and returns the backoff
  /// to wait before trying again (the caller sleeps or spins it off);
  /// otherwise resets `attempt` and returns nullopt.
  std::optional<Duration> retry_after(Errno e, int& attempt,
                                      int& retries) const {
    if (e != Errno::eintr || attempt + 1 >= max_attempts) {
      attempt = 0;
      return std::nullopt;
    }
    ++attempt;
    ++retries;
    return backoff_for(attempt);
  }

  /// Field list (sim/fields.h).
  static auto fields(auto& s) {
    return std::tie(s.max_attempts, s.initial_backoff, s.backoff_mult);
  }
};

struct ProgramTimings {
  // --- vi victim (Figure 1: rename, open/creat, write*, close, chown) ---
  Duration vi_pre_open = Duration::micros(25);   // rename return -> open
  Duration vi_prep_write = Duration::micros(20); // open return -> first write
  std::uint64_t vi_write_chunk_bytes = 8192;
  Duration vi_between_chunks = Duration::micros(2);
  Duration vi_pre_close = Duration::micros(10);
  Duration vi_pre_chown = Duration::micros(44);  // buffer bookkeeping

  // --- gedit victim (Figure 3: temp write, backup, rename, chmod, chown) ---
  Duration gedit_prep = Duration::micros(30);
  std::uint64_t gedit_write_chunk_bytes = 8192;
  Duration gedit_between_chunks = Duration::micros(2);
  Duration gedit_pre_backup = Duration::micros(10);
  Duration gedit_pre_rename = Duration::micros(8);
  /// The paper's decisive victim-side gap: rename return -> chmod call.
  Duration gedit_comp_gap = Duration::micros(43);
  Duration gedit_chmod_chown_gap = Duration::micros(1);

  // --- attackers ---
  /// Detection-loop computation per iteration (vi scenario; Table 1's
  /// D = stat + this).
  Duration atk_loop_comp_vi = Duration::micros(29);
  /// Detection-loop computation per iteration (gedit scenario).
  Duration atk_loop_comp_gedit = Duration::micros(8);
  /// v1: computation between a positive stat and the unlink call
  /// (11us on the Pentium D per Figure 8).
  Duration atk_post_detect_comp = Duration::micros(8);
  /// v2 (Figure 9): fname selection only.
  Duration atk_v2_comp = Duration::micros(2);
  /// Pipelined attacker: flag hand-off and retry pacing.
  Duration atk_thread_handoff = Duration::micros(1);

  /// EINTR retry policy shared by the hardened victims and attackers.
  RetryPolicy retry;

  static auto fields(auto& s) {
    return std::tie(s.vi_pre_open, s.vi_prep_write, s.vi_write_chunk_bytes,
                    s.vi_between_chunks, s.vi_pre_close, s.vi_pre_chown,
                    s.gedit_prep, s.gedit_write_chunk_bytes,
                    s.gedit_between_chunks, s.gedit_pre_backup,
                    s.gedit_pre_rename, s.gedit_comp_gap,
                    s.gedit_chmod_chown_gap, s.atk_loop_comp_vi,
                    s.atk_loop_comp_gedit, s.atk_post_detect_comp,
                    s.atk_v2_comp, s.atk_thread_handoff, s.retry);
  }

  static ProgramTimings xeon();
  static ProgramTimings pentium_d();
};

}  // namespace tocttou::programs
