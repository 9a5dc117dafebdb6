#include "tocttou/trace/trace.h"

#include <algorithm>
#include <map>

#include "tocttou/common/error.h"
#include "tocttou/common/strings.h"

namespace tocttou::trace {

const char* to_string(Category c) {
  switch (c) {
    case Category::compute:
      return "compute";
    case Category::syscall:
      return "syscall";
    case Category::sem_wait:
      return "sem_wait";
    case Category::io_wait:
      return "io_wait";
    case Category::ready_wait:
      return "ready_wait";
    case Category::trap:
      return "trap";
    case Category::marker:
      return "marker";
  }
  return "?";
}

void TraceLog::add(TraceEvent ev) {
  TOCTTOU_CHECK(ev.end >= ev.begin, "trace event must not end before it begins");
  events_.push_back(std::move(ev));
}

void TraceLog::set_process_name(Pid pid, std::string name) {
  for (auto& [p, n] : names_) {
    if (p == pid) {
      n = std::move(name);
      return;
    }
  }
  names_.emplace_back(pid, std::move(name));
}

std::string TraceLog::process_name(Pid pid) const {
  for (const auto& [p, n] : names_) {
    if (p == pid) return n;
  }
  return strfmt("pid%u", pid);
}

std::vector<Pid> TraceLog::pids() const {
  std::vector<Pid> out;
  for (const auto& ev : events_) {
    if (std::find(out.begin(), out.end(), ev.pid) == out.end()) {
      out.push_back(ev.pid);
    }
  }
  return out;
}

std::vector<TraceEvent> TraceLog::for_pid(Pid pid) const {
  std::vector<TraceEvent> out;
  for (const auto& ev : events_) {
    if (ev.pid == pid) out.push_back(ev);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.begin < b.begin;
                   });
  return out;
}

std::string TraceLog::to_csv() const {
  std::string out = "begin_us,end_us,pid,name,cpu,category,label,detail\n";
  // ~80 bytes covers a typical row; reserve once so a 10^5-event trace
  // does not reallocate the output string mid-export.
  out.reserve(out.size() + events_.size() * 80);
  for (const auto& ev : events_) {
    // Free-text fields (name, label, detail) go through RFC 4180
    // escaping; a label like `rename("a,b")` must stay one field.
    out += strfmt("%.3f,%.3f,%u,%s,%d,%s,%s,%s\n", ev.begin.us(), ev.end.us(),
                  ev.pid, csv_escape(process_name(ev.pid)).c_str(), ev.cpu,
                  to_string(ev.category), csv_escape(ev.label).c_str(),
                  csv_escape(ev.detail).c_str());
  }
  return out;
}

namespace {

char fill_char(Category c) {
  switch (c) {
    case Category::compute:
      return '.';
    case Category::syscall:
      return '=';
    case Category::sem_wait:
      return '~';
    case Category::io_wait:
      return '#';
    case Category::ready_wait:
      return ' ';
    case Category::trap:
      return 'T';
    case Category::marker:
      return '!';
  }
  return '?';
}

}  // namespace

std::string render_gantt(const TraceLog& log, const GanttOptions& opts) {
  if (log.empty()) return "(empty trace)\n";
  SimTime t0 = opts.from.value_or(SimTime::never());
  SimTime t1 = opts.to.value_or(SimTime::origin());
  if (!opts.from || !opts.to) {
    for (const auto& ev : log.events()) {
      if (!opts.from) t0 = min(t0, ev.begin);
      if (!opts.to) t1 = max(t1, ev.end);
    }
  }
  if (t1 <= t0) t1 = t0 + Duration::micros(1);
  const double span_ns = static_cast<double>((t1 - t0).ns());
  const int width = std::max(opts.width, 20);

  auto col = [&](SimTime t) {
    double frac = static_cast<double>((t - t0).ns()) / span_ns;
    frac = std::clamp(frac, 0.0, 1.0);
    return static_cast<int>(frac * (width - 1));
  };

  const auto pids = log.pids();
  std::size_t name_w = 8;
  for (Pid p : pids) name_w = std::max(name_w, log.process_name(p).size());

  // One column of the axis, for the merge threshold.
  const Duration column =
      Duration::nanos(static_cast<std::int64_t>(span_ns) / width + 1);
  auto merged_events = [&](Pid p) {
    std::vector<TraceEvent> evs = log.for_pid(p);
    if (!opts.merge_adjacent) return evs;
    std::vector<TraceEvent> out;
    for (auto& ev : evs) {
      if (!out.empty() && ev.category != Category::marker &&
          out.back().category == ev.category &&
          out.back().label == ev.label && ev.begin >= out.back().end &&
          ev.begin - out.back().end <= column) {
        out.back().end = ev.end;
        continue;
      }
      out.push_back(ev);
    }
    return out;
  };

  std::string out;
  out += strfmt("%s  time: %.1fus .. %.1fus (%.1fus span)\n",
                pad_right("", name_w).c_str(), t0.us(), t1.us(),
                (t1 - t0).us());
  for (Pid p : pids) {
    const auto events = merged_events(p);
    std::string row(static_cast<std::size_t>(width), ' ');
    // Paint fills first, then overlay labels so short labels stay visible.
    for (const auto& ev : events) {
      if (ev.category == Category::marker) continue;
      if (ev.end <= t0 || ev.begin >= t1) continue;
      const int a = col(max(ev.begin, t0));
      const int b = std::max(a, col(min(ev.end, t1)));
      for (int c = a; c <= b && c < width; ++c) {
        row[static_cast<std::size_t>(c)] = fill_char(ev.category);
      }
    }
    for (const auto& ev : events) {
      if (ev.category == Category::marker && !opts.show_markers) continue;
      if (ev.end < t0 || ev.begin > t1) continue;
      const int a = col(max(ev.begin, t0));
      const int b = std::max(a, col(min(ev.end, t1)));
      const int seg = b - a + 1;
      std::string label = ev.label;
      if (ev.category == Category::marker) label = "^" + label;
      const int n = std::min<int>(static_cast<int>(label.size()), seg);
      for (int i = 0; i < n && a + i < width; ++i) {
        row[static_cast<std::size_t>(a + i)] = label[static_cast<std::size_t>(i)];
      }
      // Segment boundary ticks for non-instant events.
      if (ev.category != Category::marker && seg >= 2) {
        row[static_cast<std::size_t>(a)] = '|';
        if (n < seg) {
          for (int i = 0; i < n && a + 1 + i < width; ++i) {
            row[static_cast<std::size_t>(a + 1 + i)] =
                label[static_cast<std::size_t>(i)];
          }
        }
        if (b < width) row[static_cast<std::size_t>(b)] = '|';
      }
    }
    out += pad_right(log.process_name(p), name_w) + "  " + row + "\n";
  }
  if (opts.show_legend) {
    out +=
        strfmt("%s  legend: |name..| syscall, '.' compute, '~' semaphore "
               "wait, '#' I/O wait, 'T' trap, '^' marker\n",
               pad_right("", name_w).c_str());
  }
  return out;
}

}  // namespace tocttou::trace
