#include "tocttou/trace/journal.h"

#include <algorithm>
#include <functional>

#include "tocttou/common/strings.h"

namespace tocttou::trace {

SyscallRecord& SyscallJournal::append(Pid pid, std::string_view name,
                                      SimTime enter, SimTime exit,
                                      Errno result, std::string_view path,
                                      std::string_view path2) {
  SyscallRecord& r = records_.emplace_back();
  r.pid = pid;
  r.name = intern(name);
  r.enter = enter;
  r.exit = exit;
  r.result = result;
  r.path = intern(path);
  r.path2 = intern(path2);
  return r;
}

std::size_t SyscallJournal::slot_of(std::string_view s) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(s) & mask;
  while (slots_[i] != kEmptyStr && text(slots_[i]) != s) i = (i + 1) & mask;
  return i;
}

StrId SyscallJournal::intern(std::string_view s) {
  if (s.empty()) return kEmptyStr;
  if (slots_.empty()) slots_.assign(16, kEmptyStr);
  const std::size_t slot = slot_of(s);
  if (slots_[slot] != kEmptyStr) return slots_[slot];
  spans_.push_back({static_cast<std::uint32_t>(chars_.size()),
                    static_cast<std::uint32_t>(s.size())});
  chars_.append(s);
  const auto id = static_cast<StrId>(spans_.size());
  slots_[slot] = id;
  // At most half full, so probes stay short and always end.
  if (2 * spans_.size() > slots_.size()) grow_slots();
  return id;
}

void SyscallJournal::grow_slots() {
  slots_.assign(2 * slots_.size(), kEmptyStr);
  for (StrId id = 1; id <= spans_.size(); ++id) {
    slots_[slot_of(text(id))] = id;
  }
}

std::optional<StrId> SyscallJournal::find(std::string_view s) const {
  if (s.empty()) return kEmptyStr;
  if (slots_.empty()) return std::nullopt;
  const StrId id = slots_[slot_of(s)];
  if (id == kEmptyStr) return std::nullopt;
  return id;
}

std::string SyscallJournal::to_csv() const {
  std::string out =
      "enter_us,exit_us,pid,name,result,path,path2,st_uid,st_gid,st_ino,"
      "applied_ino\n";
  // ~96 bytes covers a typical row; one up-front reservation keeps a
  // large-machine journal from reallocating (and re-copying) the string
  // O(log n) times mid-export.
  out.reserve(out.size() + records_.size() * 96);
  auto opt = [](const auto& v) {
    return v ? std::to_string(static_cast<unsigned long long>(*v))
             : std::string();
  };
  for (const auto& r : records_) {
    // Paths are attacker-controlled free text; RFC 4180 escaping keeps a
    // path with an embedded comma or quote a single CSV field.
    out += strfmt("%.3f,%.3f,%u,%s,%s,%s,%s,%s,%s,%s,%s\n", r.enter.us(),
                  r.exit.us(), r.pid, csv_escape(name(r)).c_str(),
                  to_string(r.result), csv_escape(path(r)).c_str(),
                  csv_escape(path2(r)).c_str(), opt(r.st_uid).c_str(),
                  opt(r.st_gid).c_str(), opt(r.st_ino).c_str(),
                  opt(r.applied_ino).c_str());
  }
  return out;
}

std::vector<const SyscallRecord*> SyscallJournal::for_pid(
    Pid pid, std::string_view name) const {
  std::vector<const SyscallRecord*> out;
  const std::optional<StrId> id = find(name);
  if (!id) return out;
  for (const auto& r : records_) {
    if (r.pid == pid && r.name == *id) out.push_back(&r);
  }
  // stable_sort: equal enter times keep journal (completion) order, so
  // the pointer conversion cannot reshuffle ties the old copy-based
  // sort happened to leave in place.
  std::stable_sort(out.begin(), out.end(),
                   [](const SyscallRecord* a, const SyscallRecord* b) {
                     return a->enter < b->enter;
                   });
  return out;
}

}  // namespace tocttou::trace
