#include "tocttou/detect/classify.h"

#include <algorithm>
#include <array>
#include <map>
#include <string>

namespace tocttou::detect {
namespace {

// The modeled syscall surface (fs/ops.cc). Fd-based calls (read, write,
// close, fchown, fchmod) bind to an inode the process already holds, so
// no pathname invariant is involved; they classify as none of the
// three. Kept sorted for readability, matched linearly — the tables are
// tiny and this is not the hot path.
constexpr std::array<std::string_view, 9> kChecks = {
    "access", "link",     "lstat", "mkdir", "open",
    "readlink", "rename", "stat",  "symlink"};

constexpr std::array<std::string_view, 8> kUses = {
    "chmod", "chown", "link",  "mkdir",
    "open",  "rename", "symlink", "unlink"};

constexpr std::array<std::string_view, 7> kMutators = {
    "chmod", "chown", "link", "mkdir", "rename", "symlink", "unlink"};

template <std::size_t N>
bool contains(const std::array<std::string_view, N>& set,
              std::string_view name) {
  return std::find(set.begin(), set.end(), name) != set.end();
}

}  // namespace

bool is_check_name(std::string_view name) { return contains(kChecks, name); }
bool is_use_name(std::string_view name) { return contains(kUses, name); }
bool is_mutator_name(std::string_view name) {
  return contains(kMutators, name);
}

void acted_names(const trace::SyscallRecord& r,
                 std::vector<std::string_view>* out) {
  out->clear();
  if (!r.path.empty()) out->push_back(r.path);
  // rename(old, new) depends on both name bindings; link(old, new)
  // dereferences oldpath and creates newpath. symlink(target, linkpath)
  // journals the TARGET as path2 — a string stored in the new link, not
  // a name the call resolves — so it is excluded.
  if ((r.name == "rename" || r.name == "link") && !r.path2.empty()) {
    out->push_back(r.path2);
  }
}

void established_names(const trace::SyscallRecord& r,
                       std::vector<std::string_view>* out) {
  out->clear();
  if (r.name == "rename") {
    // The object now lives at newpath; oldpath's binding is gone.
    if (!r.path2.empty()) out->push_back(r.path2);
    return;
  }
  if (r.name == "link") {
    // Vouches both for the oldpath it dereferenced and the newpath it
    // created.
    if (!r.path.empty()) out->push_back(r.path);
    if (!r.path2.empty()) out->push_back(r.path2);
    return;
  }
  if (!r.path.empty()) out->push_back(r.path);
}

void mutated_names(const trace::SyscallRecord& r,
                   std::vector<std::string_view>* out) {
  out->clear();
  if (r.name == "rename") {
    // Both ends change: oldpath disappears, newpath is rebound.
    if (!r.path.empty()) out->push_back(r.path);
    if (!r.path2.empty()) out->push_back(r.path2);
    return;
  }
  if (r.name == "link") {
    // Only the created newpath gains a binding; oldpath is untouched.
    if (!r.path2.empty()) out->push_back(r.path2);
    return;
  }
  if (!r.path.empty()) out->push_back(r.path);
}

std::vector<CheckUse> check_use_windows(
    const std::vector<trace::SyscallRecord>& records,
    const std::vector<std::size_t>& order) {
  std::vector<CheckUse> out;
  std::map<std::string, std::size_t, std::less<>> last_check;
  std::vector<std::string_view> names;
  for (const std::size_t r : order) {
    const trace::SyscallRecord& rec = records[r];
    if (is_use_name(rec.name)) {
      acted_names(rec, &names);
      for (const std::string_view n : names) {
        const auto it = last_check.find(n);
        if (it != last_check.end() && rec.enter > records[it->second].exit) {
          out.push_back({it->second, r, n});
        }
      }
    }
    if (rec.result == Errno::ok) {
      // The process's own rename or unlink retires the old name's
      // invariant (rename before establishing its new name); a failed
      // call retires and establishes nothing.
      if (rec.name == "rename" || rec.name == "unlink") {
        last_check.erase(rec.path);
      }
      if (is_check_name(rec.name)) {
        established_names(rec, &names);
        for (const std::string_view n : names) {
          last_check.insert_or_assign(std::string(n), r);
        }
      }
    }
  }
  return out;
}

}  // namespace tocttou::detect
