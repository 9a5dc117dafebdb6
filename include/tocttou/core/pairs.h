// TOCTTOU pair taxonomy and post-mortem pair detection.
//
// Following the CUU model of the companion anatomy study (FAST'05,
// reference [24]): a TOCTTOU pair is a <check, use> couple of syscalls
// that operate on the same file name, where the check establishes an
// invariant (existence, ownership, non-symlink-ness) and the use assumes
// it still holds. The detector scans a syscall journal for such pairs
// and reports each occurrence with its window — this is the "post mortem
// analysis" flavor of TOCTTOU tooling.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "tocttou/common/time.h"
#include "tocttou/trace/journal.h"

namespace tocttou::core {

enum class CallClass { check, use, both, neither };

/// Classification of the modeled syscalls.
/// Check set: calls that *observe* a file name's state.
/// Use set: calls that *act* on a file name assuming prior observations.
/// `open` is in both (it checks existence and acts).
CallClass classify_call(std::string_view name);
bool is_check_call(std::string_view name);
bool is_use_call(std::string_view name);

/// A known-vulnerable pair shape with a short description.
struct PairShape {
  std::string check;
  std::string use;
  std::string description;
};

/// The pair shapes behind the paper's running examples and the classic
/// literature (sendmail, vi, gedit, rpm, temp-file creation).
const std::vector<PairShape>& known_pair_shapes();

/// One detected occurrence in a journal.
struct DetectedPair {
  std::string check_call;
  std::string use_call;
  std::string path;
  SimTime check_exit;
  SimTime use_enter;
  Duration window() const { return use_enter - check_exit; }
};

/// Scans `pid`'s records for <check, use> occurrences on the same path:
/// every check call is paired with each later use call on that path up
/// to (and including) the next check of the same path. Records are
/// processed in program order — journal order, so calls entering at the
/// same instant keep the order they ran in (detect::WindowFinder,
/// the detector's own window finder).
std::vector<DetectedPair> find_pairs(const trace::SyscallJournal& journal,
                                     trace::Pid pid);

/// Convenience: the widest window among detected pairs matching the
/// given calls (e.g. <"open","chown"> for vi), if any.
std::optional<DetectedPair> find_widest_pair(
    const trace::SyscallJournal& journal, trace::Pid pid,
    std::string_view check, std::string_view use);

/// A cross-process interference: another process mutated a name inside
/// one of the victim's <check, use> windows — the signature an online
/// TOCTTOU detector (the Lhee/Chapin or Tsyrklevich/Yee class of tools
/// in the paper's Section 8) would flag at run time.
struct Interference {
  DetectedPair window;         // the victim's vulnerable pair
  trace::Pid intruder = 0;     // who interfered
  std::string intruder_call;   // what they did (unlink, symlink, rename)
  SimTime at;                  // when (the intruder call's enter time)
};

/// Scans the journal for mutations by any OTHER process landing on the
/// watched path strictly inside one of `victim`'s detected windows.
/// This is exactly the paper's attack signature: the attacker's
/// unlink+symlink between the victim's check and use.
std::vector<Interference> find_interference(
    const trace::SyscallJournal& journal, trace::Pid victim);

}  // namespace tocttou::core
