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
//
// Everything past the name tables works on a journal's string ids
// (trace/journal.h): a journal's op names are classified once, and two
// records name the same path iff they hold the same id.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
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

/// What the tables say about one op name.
struct CallKind {
  bool check = false;
  bool use = false;
  bool mutator = false;
  /// The calls whose path arguments the helpers below treat specially.
  enum class Op : std::uint8_t { other, rename, link, unlink } op = Op::other;
};

CallKind call_kind(std::string_view name);

/// Up to two path ids of one record, primary path before path2.
struct NameIds {
  std::array<trace::StrId, 2> ids{};
  std::size_t size = 0;

  const trace::StrId* begin() const { return ids.data(); }
  const trace::StrId* end() const { return ids.data() + size; }
};

/// Names the call operates on when acting as a USE: the invariant it
/// relies on covers these names.
NameIds acted_names(const trace::SyscallRecord& r, CallKind kind);

/// Names a successful call establishes an invariant for when acting as
/// a CHECK (rename vouches for newpath, not the now-gone oldpath; link
/// vouches for the observed oldpath and the created newpath).
NameIds established_names(const trace::SyscallRecord& r, CallKind kind);

/// Names whose binding a successful call changes — what an attacker's
/// call can invalidate (rename: both ends; link: the created newpath;
/// chown/chmod/unlink/symlink/mkdir: the primary path).
NameIds mutated_names(const trace::SyscallRecord& r, CallKind kind);

/// One <check, use> window of a process: the indices into the journal's
/// records of the check and the use, and the id of the name both act on.
struct CheckUse {
  std::size_t check = 0;
  std::size_t use = 0;
  trace::StrId name = trace::kEmptyStr;
};

/// Finds the <check, use> windows of a journal's processes. It classifies
/// the journal's op names once and keeps one table of the latest check
/// per name id, whose entries each search stamps with its number, so the
/// windows of every process together cost O(records).
class WindowFinder {
 public:
  explicit WindowFinder(const trace::SyscallJournal& journal);

  CallKind kind(const trace::SyscallRecord& r) const { return kinds_[r.name]; }

  /// Appends one process's windows to `out`. `order` lists the indices
  /// of its records in program order (journal order: a process's calls
  /// complete in the order they enter). A use pairs with the latest
  /// still-valid check of each name it acts on, when it enters after that
  /// check exits; a re-check replaces the entry (the window restarts),
  /// and the process's own successful unlink or rename retires the name's
  /// invariant. Windows come out in use order, then acted-name order.
  void check_use_windows(std::span<const std::uint32_t> order,
                         std::vector<CheckUse>* out);

 private:
  /// The latest check of a name, valid in the search that stamped it.
  struct Check {
    std::uint32_t search = 0;
    std::size_t rec = 0;
  };

  const trace::SyscallJournal* journal_;
  std::vector<CallKind> kinds_;    // by string id
  std::vector<Check> last_check_;  // by string id
  std::uint32_t search_ = 0;
};

}  // namespace tocttou::detect
