#include "tocttou/core/analysis.h"

#include <algorithm>

#include "tocttou/core/model.h"

namespace tocttou::core {

std::optional<double> WindowMeasurement::predicted_rate() const {
  if (!laxity || !d || *d <= Duration::zero()) return std::nullopt;
  return laxity_success_rate(*laxity, *d);
}

WindowMeasurement analyze_window(const trace::SyscallJournal& journal,
                                 trace::Pid victim, trace::Pid attacker,
                                 const WindowSpec& spec,
                                 DConvention convention) {
  WindowMeasurement m;

  // --- victim side: window_open (check exit) and t3 (use enter) ---
  trace::WindowTracker window(victim, spec);
  for (const auto& r : journal.records()) window.add(journal, r);
  if (!window.found()) return m;
  m.window_found = true;
  m.window_open = window.open();
  m.t3 = window.use();

  // --- attacker side: detection stats on the watched path ---
  const std::optional<trace::StrId> watched = journal.find(spec.path);
  const std::optional<trace::StrId> stat_id = journal.find("stat");
  std::vector<const trace::SyscallRecord*> stats;
  for (const auto& r : journal.records()) {
    if (r.pid == attacker && r.name == stat_id) stats.push_back(&r);
  }
  const trace::SyscallRecord* detect = nullptr;
  for (const trace::SyscallRecord* r : stats) {
    if (r->path != watched) continue;
    if (r->result == Errno::ok && r->st_uid && *r->st_uid == 0 &&
        r->st_gid && *r->st_gid == 0) {
      if (detect == nullptr || r->enter < detect->enter) detect = r;
    }
  }
  if (detect == nullptr) return m;
  m.detected = true;
  // Effective detection start: a stat that *entered* before the window
  // opened (blocked on the directory semaphore behind the check call)
  // cannot logically have begun observing the window before it existed,
  // so clamp t1 to the window-open instant. The paper's t1 ("earliest
  // observed start time of stat which indicates a vulnerability window")
  // has the same intent; without the clamp L is systematically inflated
  // by up to one blocked-stat duration.
  m.t1 = max(detect->enter, m.window_open);

  // --- D per convention ---
  switch (convention) {
    case DConvention::loop_iteration: {
      // Mean period between consecutive detection-loop stats up to and
      // including the detecting one.
      Duration total = Duration::zero();
      int gaps = 0;
      std::optional<SimTime> prev;
      for (const trace::SyscallRecord* r : stats) {
        if (r->path != watched) continue;
        if (r->enter > detect->enter) break;
        if (prev) {
          total += r->enter - *prev;
          ++gaps;
        }
        prev = r->enter;
      }
      if (gaps > 0) m.d = total / gaps;
      break;
    }
    case DConvention::stat_to_unlink: {
      // Interval from the detecting stat's start to the unlink's start
      // (includes post-detection computation and any libc trap).
      const trace::SyscallRecord* unlink = nullptr;
      const std::optional<trace::StrId> unlink_id = journal.find("unlink");
      for (const auto& r : journal.records()) {
        if (r.pid != attacker || r.name != unlink_id) continue;
        if (r.path == watched && r.enter >= detect->enter) {
          if (unlink == nullptr || r.enter < unlink->enter) unlink = &r;
        }
      }
      if (unlink != nullptr) {
        m.d = unlink->enter - m.t1;  // from the effective start
      }
      break;
    }
  }

  if (m.d) m.laxity = (m.t3 - *m.d) - m.t1;
  return m;
}

}  // namespace tocttou::core
