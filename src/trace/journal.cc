#include "tocttou/trace/journal.h"

#include <algorithm>

#include "tocttou/common/strings.h"

namespace tocttou::trace {

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
                  r.exit.us(), r.pid, csv_escape(r.name).c_str(),
                  to_string(r.result), csv_escape(r.path).c_str(),
                  csv_escape(r.path2).c_str(), opt(r.st_uid).c_str(),
                  opt(r.st_gid).c_str(), opt(r.st_ino).c_str(),
                  opt(r.applied_ino).c_str());
  }
  return out;
}

std::vector<const SyscallRecord*> SyscallJournal::for_pid(
    Pid pid, std::string_view name) const {
  std::vector<const SyscallRecord*> out;
  for (const auto& r : records_) {
    if (r.pid == pid && r.name == name) out.push_back(&r);
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
