#include "tocttou/core/pairs.h"

#include <algorithm>

#include "tocttou/detect/classify.h"

namespace tocttou::core {

// The check/use/mutator truth tables and the window finder live in
// detect/classify.h — the happens-before detector rediscovers pairs from
// raw traces and must agree with the post-mortem scanner on what counts
// as one, so both layers share them.

CallClass classify_call(std::string_view name) {
  const bool c = detect::is_check_name(name);
  const bool u = detect::is_use_name(name);
  if (c && u) return CallClass::both;
  if (c) return CallClass::check;
  if (u) return CallClass::use;
  return CallClass::neither;
}

bool is_check_call(std::string_view name) {
  return detect::is_check_name(name);
}
bool is_use_call(std::string_view name) {
  return detect::is_use_name(name);
}

const std::vector<PairShape>& known_pair_shapes() {
  static const std::vector<PairShape> shapes = {
      {"open", "chown",
       "vi 6.1 save path: creates the file as root, then gives it back"},
      {"rename", "chown",
       "gedit 2.8.3 save path: renames the scratch file, then restores "
       "ownership"},
      {"rename", "chmod",
       "gedit 2.8.3 save path: the chmod immediately before the chown"},
      {"lstat", "open",
       "sendmail-style mailbox append: checks for a symlink, then opens"},
      {"stat", "open", "generic existence check followed by open"},
      {"stat", "chown", "generic attribute check followed by ownership change"},
      {"access", "open", "the classic setuid access(2)/open(2) pair"},
      {"stat", "unlink", "cleanup daemons: check age/owner, then remove"},
      {"stat", "mkdir", "temp-dir creation after an existence probe"},
  };
  return shapes;
}

std::vector<DetectedPair> find_pairs(const trace::SyscallJournal& journal,
                                     trace::Pid pid) {
  const auto& recs = journal.records();
  std::vector<std::uint32_t> order;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    if (recs[r].pid == pid) order.push_back(static_cast<std::uint32_t>(r));
  }
  std::vector<detect::CheckUse> windows;
  detect::WindowFinder(journal).check_use_windows(order, &windows);
  std::vector<DetectedPair> out;
  for (const detect::CheckUse& w : windows) {
    const trace::SyscallRecord& check = recs[w.check];
    const trace::SyscallRecord& use = recs[w.use];
    out.push_back(DetectedPair{std::string(journal.name(check)),
                               std::string(journal.name(use)),
                               std::string(journal.text(w.name)), check.exit,
                               use.enter});
  }
  return out;
}

std::optional<DetectedPair> find_widest_pair(
    const trace::SyscallJournal& journal, trace::Pid pid,
    std::string_view check, std::string_view use) {
  std::optional<DetectedPair> best;
  for (const auto& p : find_pairs(journal, pid)) {
    if (p.check_call == check && p.use_call == use) {
      if (!best || p.window() > best->window()) best = p;
    }
  }
  return best;
}

std::vector<Interference> find_interference(
    const trace::SyscallJournal& journal, trace::Pid victim) {
  const auto windows = find_pairs(journal, victim);
  std::vector<Interference> out;
  for (const auto& r : journal.records()) {
    if (r.pid == victim || r.result != Errno::ok) continue;
    // Namespace mutations only: attribute changes (chown/chmod) do not
    // remap a name, so they cannot redirect the victim's use.
    const std::string_view name = journal.name(r);
    if (!(name == "unlink" || name == "symlink" || name == "rename" ||
          name == "link" || name == "mkdir")) {
      continue;
    }
    // mutated_names resolves the secondary path per call: rename remaps
    // both ends, link binds its newpath (path2) — previously invisible.
    const detect::NameIds names =
        detect::mutated_names(r, detect::call_kind(name));
    for (const auto& w : windows) {
      bool on_path = false;
      for (const trace::StrId n : names) {
        on_path = on_path || journal.text(n) == w.path;
      }
      if (!on_path) continue;
      if (r.enter >= w.check_exit && r.enter < w.use_enter) {
        out.push_back(Interference{w, r.pid, std::string(name), r.enter});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Interference& a, const Interference& b) {
              return a.at < b.at;
            });
  return out;
}

}  // namespace tocttou::core
