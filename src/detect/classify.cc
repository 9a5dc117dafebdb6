#include "tocttou/detect/classify.h"

#include <algorithm>
#include <array>

namespace tocttou::detect {
namespace {

// The modeled syscall surface (fs/ops.cc). Fd-based calls (read, write,
// close, fchown, fchmod) bind to an inode the process already holds, so
// no pathname invariant is involved; they classify as none of the
// three. Kept sorted for readability, matched linearly — the tables are
// tiny, and a journal classifies each of its op names once.
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

CallKind call_kind(std::string_view name) {
  CallKind k;
  k.check = is_check_name(name);
  k.use = is_use_name(name);
  k.mutator = is_mutator_name(name);
  if (name == "rename") {
    k.op = CallKind::Op::rename;
  } else if (name == "link") {
    k.op = CallKind::Op::link;
  } else if (name == "unlink") {
    k.op = CallKind::Op::unlink;
  }
  return k;
}

namespace {

void push(NameIds* out, trace::StrId id) {
  if (id != trace::kEmptyStr) out->ids[out->size++] = id;
}

}  // namespace

NameIds acted_names(const trace::SyscallRecord& r, CallKind kind) {
  NameIds out;
  push(&out, r.path);
  // rename(old, new) depends on both name bindings; link(old, new)
  // dereferences oldpath and creates newpath. symlink(target, linkpath)
  // journals the TARGET as path2 — a string stored in the new link, not
  // a name the call resolves — so it is excluded.
  if (kind.op == CallKind::Op::rename || kind.op == CallKind::Op::link) {
    push(&out, r.path2);
  }
  return out;
}

NameIds established_names(const trace::SyscallRecord& r, CallKind kind) {
  NameIds out;
  if (kind.op == CallKind::Op::rename) {
    // The object now lives at newpath; oldpath's binding is gone.
    push(&out, r.path2);
  } else if (kind.op == CallKind::Op::link) {
    // Vouches both for the oldpath it dereferenced and the newpath it
    // created.
    push(&out, r.path);
    push(&out, r.path2);
  } else {
    push(&out, r.path);
  }
  return out;
}

NameIds mutated_names(const trace::SyscallRecord& r, CallKind kind) {
  NameIds out;
  if (kind.op == CallKind::Op::rename) {
    // Both ends change: oldpath disappears, newpath is rebound.
    push(&out, r.path);
    push(&out, r.path2);
  } else if (kind.op == CallKind::Op::link) {
    // Only the created newpath gains a binding; oldpath is untouched.
    push(&out, r.path2);
  } else {
    push(&out, r.path);
  }
  return out;
}

WindowFinder::WindowFinder(const trace::SyscallJournal& journal)
    : journal_(&journal),
      kinds_(journal.string_count()),
      last_check_(journal.string_count()) {
  // Only op names are looked up; each is classified once.
  std::vector<char> seen(journal.string_count(), 0);
  for (const trace::SyscallRecord& r : journal.records()) {
    if (!seen[r.name]) {
      seen[r.name] = 1;
      kinds_[r.name] = call_kind(journal.name(r));
    }
  }
}

void WindowFinder::check_use_windows(std::span<const std::uint32_t> order,
                                     std::vector<CheckUse>* out) {
  const std::vector<trace::SyscallRecord>& records = journal_->records();
  // Entries stamped by an earlier search read as empty.
  ++search_;
  for (const std::uint32_t r : order) {
    const trace::SyscallRecord& rec = records[r];
    const CallKind k = kinds_[rec.name];
    if (k.use) {
      for (const trace::StrId n : acted_names(rec, k)) {
        const Check& c = last_check_[n];
        if (c.search == search_ && rec.enter > records[c.rec].exit) {
          out->push_back({c.rec, r, n});
        }
      }
    }
    if (rec.result == Errno::ok) {
      // The process's own rename or unlink retires the old name's
      // invariant (rename before establishing its new name); a failed
      // call retires and establishes nothing.
      if (k.op == CallKind::Op::rename || k.op == CallKind::Op::unlink) {
        last_check_[rec.path].search = 0;
      }
      if (k.check) {
        for (const trace::StrId n : established_names(rec, k)) {
          last_check_[n] = {search_, r};
        }
      }
    }
  }
}

}  // namespace tocttou::detect
