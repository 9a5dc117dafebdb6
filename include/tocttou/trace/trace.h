// Event tracing for simulated runs.
//
// The paper's event analyses (Figures 8 and 10, Tables 1 and 2) came from
// a kernel tracer recording the begin/end of every syscall and the gaps
// between them. `TraceLog` is the equivalent here: the simulated kernel
// records one `TraceEvent` per execution segment (computation, syscall
// body, semaphore wait, I/O wait, trap, ready-queue wait), and the
// analysis code in tocttou/core extracts windows, L and D from it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tocttou/common/time.h"

namespace tocttou::trace {

/// Simulated process id (matches sim::Pid; kept as a plain integer here so
/// trace has no dependency on the simulator).
using Pid = std::uint32_t;

enum class Category {
  compute,    // user-mode computation
  syscall,    // executing a syscall body (label = syscall name)
  sem_wait,   // blocked acquiring an inode semaphore (label = sem name)
  io_wait,    // blocked on (simulated) device I/O
  ready_wait, // runnable but not running (waiting for a CPU)
  trap,       // page-fault trap (e.g. first-touch libc page mapping)
  marker,     // instantaneous annotation (label carries the meaning)
};

const char* to_string(Category c);

/// One contiguous segment of a process's life, or an instantaneous marker
/// (begin == end).
struct TraceEvent {
  SimTime begin;
  SimTime end;
  Pid pid = 0;
  int cpu = -1;          // CPU the segment ran on; -1 when not on a CPU
  Category category = Category::marker;
  std::string label;     // e.g. "rename", "comp", "window_check"
  std::string detail;    // free-form, e.g. "uid=0 -> detected window"

  Duration length() const { return end - begin; }
};

/// Append-only log of trace events for one simulated round.
class TraceLog {
 public:
  void add(TraceEvent ev);
  void set_process_name(Pid pid, std::string name);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::string process_name(Pid pid) const;
  std::vector<Pid> pids() const;

  /// Events of one process, in time order (the log is already appended in
  /// global time order per process).
  std::vector<TraceEvent> for_pid(Pid pid) const;

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// CSV export: begin_us,end_us,pid,name,cpu,category,label,detail
  std::string to_csv() const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::pair<Pid, std::string>> names_;
};

/// Options for the ASCII Gantt renderer used to reproduce the style of
/// the paper's Figures 8 and 10.
struct GanttOptions {
  int width = 100;                 // characters across the time axis
  std::optional<SimTime> from;     // default: first event
  std::optional<SimTime> to;       // default: last event
  bool show_markers = true;
  bool show_legend = true;
  /// Merge adjacent segments of the same process/category/label whose
  /// gap is below one column — one syscall then renders as one block
  /// even though it executed as several kernel work steps.
  bool merge_adjacent = true;
};

/// Renders one row per process; segments are labeled blocks, e.g.
///   gedit    |rename......|c|chmod|chown|
///   attacker |stat|c|T|unlink~~~~~|symlink|
/// where '~' marks semaphore waits and 'T' traps.
std::string render_gantt(const TraceLog& log, const GanttOptions& opts = {});

}  // namespace tocttou::trace
