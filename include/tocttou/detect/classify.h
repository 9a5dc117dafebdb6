// Syscall classification for race detection, at the trace layer.
//
// The detector rediscovers <check, use> pairs from raw journals, so the
// taxonomy of which calls check, use, establish, or mutate a pathname,
// and the one walk that finds a process's <check, use> windows, live
// HERE (below core) and core/pairs delegates to them — one truth table,
// one window finder, two consumers. The per-record helpers resolve the
// secondary path argument correctly per call: rename acts on oldpath AND
// newpath, link acts on oldpath AND creates newpath, while symlink's
// path2 is the TARGET string the new link will point at — creating
// `evil -> /etc/passwd` touches neither /etc/passwd's name binding nor
// its inode, so path2 is never an acted-on name for symlink.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "tocttou/trace/journal.h"

namespace tocttou::detect {

/// Calls whose result establishes an invariant about a pathname (the
/// "check" half of a CUU pair).
bool is_check_name(std::string_view name);

/// Calls that rely on a previously established invariant (the "use"
/// half).
bool is_use_name(std::string_view name);

/// Calls an attacker can issue to invalidate a name binding or the
/// object behind it between a victim's check and use.
bool is_mutator_name(std::string_view name);

// Each helper clears `out` and appends string_views aliasing fields of
// `r` (valid while the record is). Deterministic order: path before
// path2.

/// Names the call operates on when acting as a USE: the invariant it
/// relies on covers these names.
void acted_names(const trace::SyscallRecord& r,
                 std::vector<std::string_view>* out);

/// Names a successful call establishes an invariant for when acting as
/// a CHECK (rename vouches for newpath, not the now-gone oldpath; link
/// vouches for the observed oldpath and the created newpath).
void established_names(const trace::SyscallRecord& r,
                       std::vector<std::string_view>* out);

/// Names whose binding a successful call changes — what an attacker's
/// call can invalidate (rename: both ends; link: the created newpath;
/// chown/chmod/unlink/symlink/mkdir: the primary path).
void mutated_names(const trace::SyscallRecord& r,
                   std::vector<std::string_view>* out);

/// One <check, use> window of a process: the indices into the journal's
/// records of the check and the use, and the name both act on (a view
/// into the use record).
struct CheckUse {
  std::size_t check = 0;
  std::size_t use = 0;
  std::string_view name;
};

/// Finds one process's <check, use> windows. `order` lists the indices
/// of its records in program order (journal order: a process's calls
/// complete in the order they enter). A use pairs with the latest
/// still-valid check of each name it acts on, when it enters after that
/// check exits; a re-check replaces the entry (the window restarts), and
/// the process's own successful unlink or rename retires the name's
/// invariant. Windows come out in use order, then acted-name order.
std::vector<CheckUse> check_use_windows(
    const std::vector<trace::SyscallRecord>& records,
    const std::vector<std::size_t>& order);

}  // namespace tocttou::detect
