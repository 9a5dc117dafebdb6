#include "tocttou/sim/kernel.h"

#include <cstring>

#include "tocttou/common/error.h"
#include "tocttou/common/strings.h"
#include "tocttou/detect/sync.h"
#include "tocttou/metrics/metrics.h"
#include "tocttou/sim/faults.h"
#include "tocttou/sim/fields.h"

namespace tocttou::sim {

namespace {

/// Background kernel-thread load generator: sleep an exponential interval,
/// then burn a short high-priority burst (DESIGN.md: the source of the
/// "some other process prevents the attacker from being scheduled" failures
/// in the paper's 1-byte vi experiments).
class BackgroundDaemon : public Listed<BackgroundDaemon, Program> {
 public:
  explicit BackgroundDaemon(BackgroundLoad cfg) : cfg_(cfg) {}

  static auto fields(auto& self) {
    return std::tie(self.cfg_, self.sleeping_next_);
  }

  Action next(ProgramContext& ctx) override {
    if (sleeping_next_) {
      sleeping_next_ = false;
      const double mean_us = cfg_.mean_interval.us();
      return Action::sleep_for(
          Duration::micros_f(ctx.rng.exponential(mean_us)));
    }
    sleeping_next_ = true;
    return Action::compute(
        ctx.rng.normal_duration(cfg_.burst_mean, cfg_.burst_stdev,
                                Duration::micros(10)),
        "kthread");
  }

 private:
  BackgroundLoad cfg_;
  bool sleeping_next_ = true;
};

/// Writes "<prefix><name>" into `buf` and views it: a per-call metrics
/// key that costs no heap string.
template <std::size_t N>
std::string_view join_key(char (&buf)[N], std::string_view prefix,
                          std::string_view name) {
  TOCTTOU_CHECK(prefix.size() + name.size() <= N, "metrics key too long");
  std::memcpy(buf, prefix.data(), prefix.size());
  std::memcpy(buf + prefix.size(), name.data(), name.size());
  return {buf, prefix.size() + name.size()};
}

}  // namespace

Kernel::Kernel(MachineSpec spec, std::unique_ptr<Scheduler> sched,
               std::uint64_t seed, trace::RoundTrace* trace)
    : spec_(std::move(spec)),
      sched_(std::move(sched)),
      rng_(seed),
      trace_(trace) {
  TOCTTOU_CHECK(spec_.n_cpus >= 1, "machine needs at least one CPU");
  TOCTTOU_CHECK(static_cast<bool>(sched_), "kernel needs a scheduler");
  cpus_.resize(static_cast<std::size_t>(spec_.n_cpus));
  sched_->init(spec_.n_cpus);
  allowed_scratch_.reserve(static_cast<std::size_t>(spec_.n_cpus));
  idle_scratch_.reserve(static_cast<std::size_t>(spec_.n_cpus));
}

Kernel::~Kernel() = default;

Pid Kernel::spawn(std::unique_ptr<Program> program, SpawnOptions opts) {
  TOCTTOU_CHECK(program != nullptr, "spawn requires a program");
  auto proc = std::unique_ptr<Process>(new Process());
  Process& p = *proc;
  p.pid_ = static_cast<Pid>(procs_.size() + 1);
  p.name_ = opts.name;
  p.priority_ = opts.priority;
  p.uid_ = opts.uid;
  p.gid_ = opts.gid;
  p.affinity_mask_ = opts.affinity_mask;
  p.kernel_thread_ = opts.kernel_thread;
  p.program_ = std::move(program);
  p.slice_left_ = opts.initial_slice.value_or(sched_->fresh_slice(p));
  p.state_ = ProcState::ready;
  procs_.emplace_back(std::move(proc));
  if (sync_ != nullptr) sync_->proc_start(p.pid_, p.uid_);
  if (metrics_ != nullptr) {
    metrics_->count("kernel.spawns");
    metrics_->gauge_max("kernel.processes_max",
                        static_cast<std::int64_t>(procs_.size()));
  }
  // Only the event log's readers (the Gantt and events-CSV writers) name
  // processes; a journal-only round copies no name.
  if (trace_ && trace_->log_events) {
    trace_->log.set_process_name(p.pid_, p.name_);
  }
  // Enqueue via an event so that spawning inside program code is safe.
  queue_.schedule_at(now(), {EventKind::spawn, p.pid_});
  return p.pid_;
}

Process& Kernel::process(Pid pid) {
  TOCTTOU_CHECK(pid >= 1 && pid <= procs_.size(), "unknown pid");
  return *procs_[pid - 1];
}

FlagId Kernel::add_flag(std::string_view name) {
  flags_.emplace_back(name);
  return static_cast<FlagId>(flags_.size() - 1);
}

const EventFlag& Kernel::flag(FlagId id) const {
  TOCTTOU_CHECK(id < flags_.size(), "unknown flag");
  return flags_[id];
}

void Kernel::hash_state(StateHasher& h) const {
  if (faults_ != nullptr) h.mark_unhashable();
  // A segment end is live only while its generation matches the
  // process's seg_gen_ and the process is still running; otherwise
  // on_segment_end drops it when it fires.
  queue_.hash_state(h, [this](const Event& ev) {
    if (ev.kind != EventKind::segment_end) return true;
    const Process& p = *procs_[ev.pid - 1];
    return p.state_ == ProcState::running && ev.arg == p.seg_gen_;
  });
  rng_.hash_state(h);
  h.u64(procs_.size());
  for (const auto& p : procs_) p->hash_state(h);
  h.u64(cpus_.size());
  for (const CpuState& c : cpus_) h.u64(c.running);
  h.u64(flags_.size());
  for (const EventFlag& f : flags_) f.hash_state(h);
  h.boolean(background_started_);
  sched_->hash_state(h);
}

const Process& Kernel::process(Pid pid) const {
  TOCTTOU_CHECK(pid >= 1 && pid <= procs_.size(), "unknown pid");
  return *procs_[pid - 1];
}

std::size_t Kernel::live_user_processes() const {
  std::size_t n = 0;
  for (const auto& p : procs_) {
    if (!p->kernel_thread_ && p->state_ != ProcState::exited) ++n;
  }
  return n;
}

Pid Kernel::running_on(CpuId cpu) const {
  TOCTTOU_CHECK(cpu >= 0 && cpu < spec_.n_cpus, "bad cpu id");
  return cpus_[static_cast<std::size_t>(cpu)].running;
}

bool Kernel::step() {
  Event ev{};
  if (!queue_.pop(&ev)) return false;
  switch (ev.kind) {
    case EventKind::spawn: {
      Process& p = process(ev.pid);
      if (p.state_ == ProcState::ready && p.cpu_ == kNoCpu) {
        make_ready(p, /*just_woken=*/false);
      }
      break;
    }
    case EventKind::wake:
      wake(ev.pid);
      break;
    case EventKind::delayed_wake:
      wake(ev.pid, /*faultable=*/false);
      break;
    case EventKind::segment_end:
      on_segment_end(ev.pid, ev.arg);
      break;
  }
  return true;
}

bool Kernel::run_until(const std::function<bool()>& stop, SimTime limit) {
  while (true) {
    if (stop()) return true;
    if (queue_.empty()) return false;
    if (queue_.peek_time() > limit) return false;
    step();
  }
}

bool Kernel::run_to_exit(SimTime limit) {
  return run_until([this] { return live_user_processes() == 0; }, limit);
}

void Kernel::mark(Pid pid, std::string label, std::string detail) {
  if (!trace_ || !trace_->log_events) return;
  trace::TraceEvent ev;
  ev.begin = ev.end = now();
  ev.pid = pid;
  ev.cpu = process(pid).cpu_;
  ev.category = trace::Category::marker;
  ev.label = std::move(label);
  ev.detail = std::move(detail);
  trace_->log.add(std::move(ev));
}

void Kernel::start_background_load() {
  TOCTTOU_CHECK(!background_started_, "background load already started");
  background_started_ = true;
  if (!spec_.background.enabled) return;
  for (int c = 0; c < spec_.n_cpus; ++c) {
    SpawnOptions opts;
    opts.name = strfmt("kthread/%d", c);
    opts.priority = spec_.background.priority;
    opts.kernel_thread = true;
    opts.affinity_mask = 1ull << c;
    spawn(std::make_unique<BackgroundDaemon>(spec_.background), opts);
  }
}

// ---------------------------------------------------------------------------
// Ready / dispatch
// ---------------------------------------------------------------------------

void Kernel::fill_allowed_cpus(const Process& p,
                               std::vector<CpuId>* out) const {
  out->clear();
  for (int c = 0; c < spec_.n_cpus; ++c) {
    if (p.affinity_mask_ & (1ull << c)) out->push_back(c);
  }
}

void Kernel::fill_idle_allowed_cpus(const Process& p,
                                    std::vector<CpuId>* out) const {
  out->clear();
  for (int c = 0; c < spec_.n_cpus; ++c) {
    if ((p.affinity_mask_ & (1ull << c)) &&
        cpus_[static_cast<std::size_t>(c)].running == kNoPid) {
      out->push_back(c);
    }
  }
}

void Kernel::make_ready(Process& p, bool just_woken) {
  TOCTTOU_CHECK(p.state_ == ProcState::ready, "make_ready on non-ready proc");
  fill_allowed_cpus(p, &allowed_scratch_);
  TOCTTOU_CHECK(!allowed_scratch_.empty(),
                "process affinity excludes every CPU");
  fill_idle_allowed_cpus(p, &idle_scratch_);
  const CpuId cpu = sched_->place(p, idle_scratch_, allowed_scratch_);
  sched_->enqueue(p, cpu, /*front=*/false);
  if (metrics_ != nullptr) {
    const auto depth =
        static_cast<std::int64_t>(sched_->queue_depth(cpu));
    metrics_->observe("sched.runqueue_depth", depth);
    metrics_->gauge_max("sched.runqueue_depth_max", depth);
  }
  auto& cs = cpus_[static_cast<std::size_t>(cpu)];
  if (cs.running == kNoPid) {
    dispatch(cpu);
    return;
  }
  {
    Process& running = process(cs.running);
    // Wakeups preempt per policy; newly spawned tasks preempt only on
    // strictly higher priority.
    const bool preempts = just_woken
                              ? sched_->should_preempt(p, running)
                              : p.priority_ > running.priority_;
    if (preempts) {
      if (running.seg_kind_ == Process::SegKind::user_compute) {
        // User mode is preemptible immediately.
        const Duration elapsed = now() - running.seg_start_;
        ++running.seg_gen_;  // invalidate the scheduled segment-end event
        charge(running, elapsed);
        trace_segment(running, trace::Category::compute,
                      running.compute_label_, running.seg_start_, now());
        running.compute_left_ -= elapsed;
        if (running.compute_left_ < Duration::zero()) {
          running.compute_left_ = Duration::zero();
        }
        running.seg_kind_ = Process::SegKind::none;
        preempt(running, /*requeue_front=*/true);
      } else {
        // Kernel mode: defer to the next safe point.
        running.need_resched_ = true;
      }
    }
  }
}

void Kernel::dispatch(CpuId cpu) {
  auto& cs = cpus_[static_cast<std::size_t>(cpu)];
  if (cs.running != kNoPid) return;
  Pid pid = sched_->pick_next(cpu);
  bool stolen = false;
  if (pid == kNoPid) {
    pid = sched_->steal(cpu);  // idle balancing
    stolen = (pid != kNoPid);
  }
  if (pid == kNoPid) return;
  Process& p = process(pid);
  TOCTTOU_CHECK(p.state_ == ProcState::ready, "picked a non-ready process");
  if (metrics_ != nullptr) {
    metrics_->count("sched.context_switches");
    if (stolen) metrics_->count("sched.steals");
  }
  if (p.wake_pending_) {
    p.wake_pending_ = false;
    if (metrics_ != nullptr) {
      metrics_->observe("kernel.wakeup_latency_ns",
                        (now() - p.wake_time_).ns());
    }
  }
  p.state_ = ProcState::running;
  p.cpu_ = cpu;
  p.last_cpu_ = cpu;
  cs.running = p.pid_;
  if (p.slice_left_ <= Duration::zero()) {
    p.slice_left_ = sched_->fresh_slice(p);
  }
  if (spec_.context_switch_cost > Duration::zero()) {
    begin_segment(p, Process::SegKind::ctxsw,
                  spec_.effective(spec_.context_switch_cost, rng_));
  } else {
    continue_process(p);
  }
}

void Kernel::free_cpu(Process& p) {
  if (p.cpu_ == kNoCpu) return;
  auto& cs = cpus_[static_cast<std::size_t>(p.cpu_)];
  TOCTTOU_CHECK(cs.running == p.pid_, "cpu/process bookkeeping mismatch");
  cs.running = kNoPid;
  const CpuId cpu = p.cpu_;
  p.cpu_ = kNoCpu;
  dispatch(cpu);
}

void Kernel::preempt(Process& p, bool requeue_front) {
  TOCTTOU_CHECK(p.state_ == ProcState::running, "preempt on non-running proc");
  ++p.preemptions_;
  if (metrics_ != nullptr) metrics_->count("sched.preemptions");
  p.need_resched_ = false;
  p.state_ = ProcState::ready;
  const CpuId cpu = p.cpu_;
  auto& cs = cpus_[static_cast<std::size_t>(cpu)];
  cs.running = kNoPid;
  p.cpu_ = kNoCpu;
  if (p.slice_left_ <= Duration::zero()) {
    p.slice_left_ = sched_->fresh_slice(p);
  }
  // A task preempted by a wakeup resumes at the head of its priority
  // level; a task whose slice expired goes to the tail.
  sched_->enqueue(p, cpu, requeue_front);
  dispatch(cpu);
}

// ---------------------------------------------------------------------------
// Action execution
// ---------------------------------------------------------------------------

void Kernel::continue_process(Process& p) {
  if (p.state_ != ProcState::running) return;
  if (p.need_resched_) {
    preempt(p, /*requeue_front=*/true);
    return;
  }
  if (p.op_) {
    advance_service(p);
    return;
  }
  if (p.compute_left_ > Duration::zero()) {
    // Resume an interrupted computation; cap the segment at the slice.
    const Duration seg = (p.slice_left_ > Duration::zero())
                             ? min(p.compute_left_, p.slice_left_)
                             : p.compute_left_;
    begin_segment(p, Process::SegKind::user_compute, seg);
    return;
  }
  start_next_action(p);
}

void Kernel::start_next_action(Process& p) {
  while (true) {
    if (p.state_ != ProcState::running) return;
    if (p.need_resched_) {
      preempt(p, /*requeue_front=*/true);
      return;
    }
    ProgramContext ctx{*this, p, rng_, now()};
    Action a = p.program_->next(ctx);
    p.result_pending_ = false;  // that next() was the one to read it
    switch (a.kind) {
      case Action::Kind::compute: {
        p.compute_left_ = spec_.effective(a.dur, rng_);
        p.compute_label_ = a.label.empty() ? "comp" : a.label;
        if (p.compute_left_ <= Duration::zero()) continue;
        const Duration seg = (p.slice_left_ > Duration::zero())
                                 ? min(p.compute_left_, p.slice_left_)
                                 : p.compute_left_;
        begin_segment(p, Process::SegKind::user_compute, seg);
        return;
      }
      case Action::Kind::service: {
        p.op_ = std::move(a.op);
        p.result_ = {};
        if (faults_ != nullptr && faults_->wants_syscall_errors()) {
          p.entry_checked_ = false;
        }
        const int page = p.op_->libc_page();
        if (page != ServiceOp::kNoLibcPage &&
            !p.mapped_libc_pages_.contains(page)) {
          p.mapped_libc_pages_.insert(page);
          begin_segment(p, Process::SegKind::trap,
                        spec_.effective(spec_.libc_fault_cost, rng_));
          return;
        }
        p.op_enter_ = now();
        if (sync_ != nullptr) sync_->sc_enter(p.pid_);
        advance_service(p);
        return;
      }
      case Action::Kind::sleep_for: {
        p.state_ = ProcState::sleeping;
        p.block_start_ = now();
        queue_.schedule_at(now() + a.dur, {EventKind::wake, p.pid_});
        free_cpu(p);
        return;
      }
      case Action::Kind::wait_flag: {
        TOCTTOU_CHECK(a.flag < flags_.size(), "wait_flag needs a flag");
        EventFlag& flag = flags_[a.flag];
        if (flag.set_) {
          // Fast path still observes the setter's publication.
          if (sync_ != nullptr) sync_->flag_wake(p.pid_, flag.name());
          continue;
        }
        p.state_ = ProcState::blocked_flag;
        p.block_start_ = now();
        p.wait_flag_ = a.flag;
        flag.waiters_.push_back(p.pid_);
        free_cpu(p);
        return;
      }
      case Action::Kind::set_flag: {
        TOCTTOU_CHECK(a.flag < flags_.size(), "set_flag needs a flag");
        EventFlag& flag = flags_[a.flag];
        flag.set_ = true;
        if (sync_ != nullptr) sync_->flag_set(p.pid_, flag.name());
        for (Pid w : flag.waiters_) {
          // Blocked waiters receive the publication at set time; they
          // perform no events before their wakeup runs, so logging the
          // wake here keeps the append order causal.
          if (sync_ != nullptr) sync_->flag_wake(w, flag.name());
          queue_.schedule_at(now() + spec_.wakeup_latency,
                             {EventKind::wake, w});
        }
        flag.waiters_.clear();
        continue;
      }
      case Action::Kind::mark: {
        mark(p.pid_, a.label);
        continue;
      }
      case Action::Kind::exit_proc: {
        handle_exit(p);
        return;
      }
    }
  }
}

void Kernel::advance_service(Process& p) {
  TOCTTOU_CHECK(static_cast<bool>(p.op_), "advance_service without an op");
  while (true) {
    if (p.state_ != ProcState::running) return;
    ServiceContext ctx{*this, p, rng_, now(), vfs_, p.result_};
    const Step step =
        p.entry_checked_ ? p.op_->advance(ctx) : first_advance(p, ctx);
    switch (step.kind) {
      case Step::Kind::work: {
        begin_segment(p, Process::SegKind::kernel_work,
                      spec_.effective(step.dur, rng_));
        return;
      }
      case Step::Kind::acquire: {
        TOCTTOU_CHECK(step.sem != nullptr, "acquire needs a semaphore");
        Semaphore& sem = *step.sem;
        if (sem.owner_ == kNoPid) {
          sem.owner_ = p.pid_;
          ++p.sems_held_;
          if (sync_ != nullptr) sync_->sem_acquire(p.pid_, sem.ino_);
          continue;  // acquired without blocking
        }
        TOCTTOU_CHECK(sem.owner_ != p.pid_, "semaphore is not recursive");
        block_on_sem(p, sem);
        return;
      }
      case Step::Kind::release: {
        TOCTTOU_CHECK(step.sem != nullptr, "release needs a semaphore");
        release_sem(p, *step.sem);
        continue;
      }
      case Step::Kind::block_io: {
        p.state_ = ProcState::blocked_io;
        p.block_start_ = now();
        queue_.schedule_at(now() + step.dur, {EventKind::wake, p.pid_});
        free_cpu(p);
        return;
      }
      case Step::Kind::done: {
        p.result_.err = step.result;
        if (faults_ != nullptr) {
          const Duration spike =
              faults_->completion_spike(p.op_->name(), p.pid_);
          if (spike > Duration::zero()) {
            // The syscall returns only after the spike, so the journal
            // exit time reflects the injected latency.
            begin_segment(p, Process::SegKind::fault_spike, spike);
            return;
          }
        }
        finish_syscall(p);
        return;
      }
    }
  }
}

Step Kernel::first_advance(Process& p, ServiceContext& ctx) {
  p.entry_checked_ = true;
  if (const auto e =
          faults_->syscall_error(p.op_->name(), p.op_->path(), p.pid_)) {
    // The call fails before the op runs, so before it touches a
    // semaphore or its result record; it then returns through the done
    // path like any other (spike, journal, kill).
    return Step::done(*e);
  }
  return p.op_->advance(ctx);
}

void Kernel::finish_syscall(Process& p) {
  complete_service(p);
  if (faults_ != nullptr && faults_->kill_at_syscall_return(p.pid_)) {
    mark(p.pid_, "fault-kill");
    handle_exit(p);
    return;
  }
  // Syscall returned; pick the next action (checks need_resched).
  start_next_action(p);
}

void Kernel::complete_service(Process& p) {
  const ServiceOp& op = *p.op_;
  const Errno result = p.result_.err;
  p.result_pending_ = true;
  if (window_ != nullptr && window_->tracks(p.pid_)) {
    window_->add(op.name(), result, op.path(), op.path2(), p.op_enter_,
                 now());
  }
  if (trace_) {
    op.fill_record(trace_->journal.append(p.pid_, op.name(), p.op_enter_,
                                          now(), result, op.path(),
                                          op.path2()));
  }
  if (metrics_ != nullptr) {
    metrics_->count("kernel.syscalls");
    char key[48];
    metrics_->count(join_key(key, "kernel.syscalls.", op.name()));
    metrics_->observe("kernel.syscall_ns", (now() - p.op_enter_).ns());
  }
  // A sync log implies a trace (set_sync_log checks): the bracket names
  // the record just appended.
  if (sync_ != nullptr) {
    sync_->sc_exit(p.pid_, trace_->journal.records().size() - 1);
  }
  p.op_.reset();
}

void Kernel::block_on_sem(Process& p, Semaphore& sem) {
  p.state_ = ProcState::blocked_sem;
  p.block_start_ = now();
  p.wait_ino_ = sem.ino_;
  p.need_resched_ = false;
  sem.waiters_.push_back(p.pid_);
  free_cpu(p);
}

void Kernel::release_sem(Process& p, Semaphore& sem) {
  TOCTTOU_CHECK(sem.owner_ == p.pid_, "releasing a semaphore not held");
  --p.sems_held_;
  if (sync_ != nullptr) sync_->sem_release(p.pid_, sem.ino_);
  if (sem.waiters_.empty()) {
    sem.owner_ = kNoPid;
    return;
  }
  // Direct hand-off preserves FIFO order and prevents barging: the next
  // waiter owns the semaphore from this instant even though it will only
  // run after the wakeup latency.
  const Pid next = sem.waiters_.front();
  sem.waiters_.pop_front();
  sem.owner_ = next;
  ++process(next).sems_held_;
  // The handoff is the happens-before edge: next owns the semaphore
  // from this instant, so its acquire is ordered here, not at wakeup.
  if (sync_ != nullptr) sync_->sem_acquire(next, sem.ino_);
  queue_.schedule_at(now() + spec_.wakeup_latency, {EventKind::wake, next});
}

void Kernel::wake(Pid pid, bool faultable) {
  Process& p = process(pid);
  if (p.state_ == ProcState::exited) return;
  if (faultable && faults_ != nullptr) {
    Duration delay = Duration::zero();
    switch (faults_->wakeup_fault(pid, &delay)) {
      case FaultInjector::WakeFault::drop:
        // The wakeup is lost. Each blocked process has exactly one
        // pending wake, so it stays blocked; a victim deadlocked this
        // way surfaces as a time-limit anomaly — a modeled outcome.
        return;
      case FaultInjector::WakeFault::delay:
        // Redeliver later; faultable=false so the late wake cannot be
        // re-faulted into an unbounded delay chain.
        queue_.schedule_at(now() + delay, {EventKind::delayed_wake, pid});
        return;
      case FaultInjector::WakeFault::none:
        break;
    }
  }
  TOCTTOU_CHECK(p.state_ != ProcState::ready && p.state_ != ProcState::running,
                "wake on a process that is not blocked");
  // A sleep is a timer, not a wait the paper's tracer drew.
  if (p.state_ != ProcState::sleeping && trace_ && trace_->log_events) {
    trace_wait(p);
  }
  if (metrics_ != nullptr) {
    const std::int64_t waited = (now() - p.block_start_).ns();
    switch (p.state_) {
      case ProcState::blocked_sem:
        metrics_->observe("fs.sem_wait_ns", waited);
        metrics_->observe("fs.sem_wait_ns." + sem_label(p.wait_ino_), waited);
        break;
      case ProcState::blocked_io:
        metrics_->observe("kernel.io_wait_ns", waited);
        break;
      case ProcState::blocked_flag:
        metrics_->observe("kernel.flag_wait_ns", waited);
        break;
      default:
        break;  // sleeping: a timer, not a wait the paper's tracer counted
    }
    p.wake_pending_ = true;
    p.wake_time_ = now();
  }
  p.state_ = ProcState::ready;
  make_ready(p, /*just_woken=*/true);
}

void Kernel::trace_wait(const Process& p) {
  trace::TraceEvent ev;
  ev.begin = p.block_start_;
  ev.end = now();
  ev.pid = p.pid_;
  ev.cpu = kNoCpu;
  switch (p.state_) {
    case ProcState::blocked_sem:
      ev.category = trace::Category::sem_wait;
      ev.label = "sem:" + sem_label(p.wait_ino_);
      break;
    case ProcState::blocked_flag:
      ev.category = trace::Category::sem_wait;
      ev.label = "flag:" + std::string(flags_[p.wait_flag_].name());
      break;
    default:  // blocked_io: the op in service stalls on its device
      ev.category = trace::Category::io_wait;
      ev.label = p.op_->name();
      break;
  }
  trace_->log.add(std::move(ev));
}

void Kernel::handle_exit(Process& p) {
  TOCTTOU_CHECK(p.sems_held_ == 0,
                "process exited while holding a semaphore");
  if (sync_ != nullptr) sync_->proc_exit(p.pid_);
  p.state_ = ProcState::exited;
  ++p.seg_gen_;
  free_cpu(p);
}

// ---------------------------------------------------------------------------
// Segments (timed spans of CPU execution)
// ---------------------------------------------------------------------------

void Kernel::begin_segment(Process& p, Process::SegKind kind,
                           Duration effective) {
  if (effective < Duration::zero()) effective = Duration::zero();
  p.seg_kind_ = kind;
  p.seg_start_ = now();
  p.seg_len_ = effective;
  queue_.schedule_at(now() + effective,
                     {EventKind::segment_end, p.pid_, ++p.seg_gen_});
}

void Kernel::on_segment_end(Pid pid, std::uint64_t gen) {
  Process& p = process(pid);
  if (gen != p.seg_gen_ || p.state_ != ProcState::running) return;
  finish_segment(p, p.seg_len_);
}

void Kernel::finish_segment(Process& p, Duration ran) {
  const Process::SegKind kind = p.seg_kind_;
  p.seg_kind_ = Process::SegKind::none;
  charge(p, ran);
  switch (kind) {
    case Process::SegKind::user_compute: {
      trace_segment(p, trace::Category::compute, p.compute_label_,
                    p.seg_start_, now());
      p.compute_left_ -= ran;
      if (p.compute_left_ < Duration::zero()) {
        p.compute_left_ = Duration::zero();
      }
      // Time-slice expiry is checked at segment boundaries (user mode).
      if (p.slice_left_ <= Duration::zero()) {
        if (sched_->should_yield_on_expiry(p, p.cpu_)) {
          preempt(p, /*requeue_front=*/false);
          return;
        }
        p.slice_left_ = sched_->fresh_slice(p);
      }
      continue_process(p);
      return;
    }
    case Process::SegKind::trap: {
      trace_segment(p, trace::Category::trap, "trap", p.seg_start_, now());
      TOCTTOU_CHECK(static_cast<bool>(p.op_), "trap must precede a service op");
      p.op_enter_ = now();
      if (sync_ != nullptr) sync_->sc_enter(p.pid_);
      if (p.need_resched_) {
        preempt(p, /*requeue_front=*/true);
        return;
      }
      advance_service(p);
      return;
    }
    case Process::SegKind::kernel_work: {
      trace_segment(p, trace::Category::syscall, p.op_->name(), p.seg_start_,
                    now());
      // Kernel work steps are non-preemptible; honor deferred preemption
      // and slice expiry at this safe point.
      if (p.need_resched_) {
        preempt(p, /*requeue_front=*/true);
        return;
      }
      if (p.slice_left_ <= Duration::zero()) {
        if (sched_->should_yield_on_expiry(p, p.cpu_)) {
          preempt(p, /*requeue_front=*/false);
          return;
        }
        p.slice_left_ = sched_->fresh_slice(p);
      }
      advance_service(p);
      return;
    }
    case Process::SegKind::ctxsw: {
      continue_process(p);
      return;
    }
    case Process::SegKind::fault_spike: {
      trace_segment(p, trace::Category::syscall, "fault-spike", p.seg_start_,
                    now());
      finish_syscall(p);
      return;
    }
    case Process::SegKind::none:
      TOCTTOU_CHECK(false, "segment end without an active segment");
  }
}

void Kernel::charge(Process& p, Duration ran) {
  p.cpu_time_ += ran;
  p.slice_left_ -= ran;
}

void Kernel::trace_segment(const Process& p, trace::Category cat,
                           std::string_view label, SimTime begin,
                           SimTime end) {
  if (!trace_ || !trace_->log_events || end == begin) return;
  trace::TraceEvent ev;
  ev.begin = begin;
  ev.end = end;
  ev.pid = p.pid_;
  ev.cpu = p.cpu_;
  ev.category = cat;
  ev.label = label;
  trace_->log.add(std::move(ev));
}

}  // namespace tocttou::sim
