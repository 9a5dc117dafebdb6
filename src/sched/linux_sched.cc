#include "tocttou/sched/linux_sched.h"

#include <algorithm>
#include <bit>

#include "tocttou/common/error.h"
#include "tocttou/sim/clone.h"

namespace tocttou::sched {

using sim::CpuId;
using sim::Pid;
using sim::Process;

LinuxLikeScheduler::LinuxLikeScheduler(LinuxSchedParams params)
    : params_(params) {}

void LinuxLikeScheduler::init(int n_cpus) {
  bqueues_.assign(static_cast<std::size_t>(n_cpus), BitmapQueue{});
  nodes_.clear();
}

LinuxLikeScheduler::LinuxLikeScheduler(const LinuxLikeScheduler& o,
                                       sim::CloneMap& m)
    : params_(o.params_), bqueues_(o.bqueues_), nodes_(o.nodes_) {
  // Links are Pids — stable across the clone (the process table is copied
  // index-for-index); only the cached Process* of queued nodes remaps.
  for (Node& n : nodes_) {
    if (n.cpu != sim::kNoCpu) n.proc = m.remap(n.proc);
  }
}

std::unique_ptr<sim::Scheduler> LinuxLikeScheduler::clone(
    sim::CloneMap& m) const {
  return std::unique_ptr<sim::Scheduler>(new LinuxLikeScheduler(*this, m));
}

// ---------------------------------------------------------------------------
// bitmap structure helpers
// ---------------------------------------------------------------------------

LinuxLikeScheduler::BitmapQueue& LinuxLikeScheduler::bq(CpuId cpu) {
  TOCTTOU_CHECK(cpu >= 0 && static_cast<std::size_t>(cpu) < bqueues_.size(),
                "bad cpu id in scheduler");
  return bqueues_[static_cast<std::size_t>(cpu)];
}

const LinuxLikeScheduler::BitmapQueue& LinuxLikeScheduler::bq(
    CpuId cpu) const {
  TOCTTOU_CHECK(cpu >= 0 && static_cast<std::size_t>(cpu) < bqueues_.size(),
                "bad cpu id in scheduler");
  return bqueues_[static_cast<std::size_t>(cpu)];
}

LinuxLikeScheduler::Node& LinuxLikeScheduler::node(Pid pid) {
  TOCTTOU_CHECK(pid != sim::kNoPid, "node lookup for pid 0");
  if (nodes_.size() < pid) nodes_.resize(pid);
  return nodes_[pid - 1];
}

int LinuxLikeScheduler::level_of(const Process& p) {
  const int level = p.priority() + kPrioBias;
  TOCTTOU_CHECK(level >= 0 && level < kLevels,
                "process priority outside the bitmap range");
  return level;
}

void LinuxLikeScheduler::bq_link(BitmapQueue& q, Process& p, bool front) {
  const Pid pid = p.pid();
  Node& n = node(pid);
  TOCTTOU_CHECK(n.cpu == sim::kNoCpu, "process enqueued twice");
  const int level = level_of(p);
  n.proc = &p;
  n.level = level;
  const auto li = static_cast<std::size_t>(level);
  if (q.head[li] == sim::kNoPid) {
    n.prev = n.next = sim::kNoPid;
    q.head[li] = q.tail[li] = pid;
    q.words[static_cast<std::size_t>(level / 64)] |= 1ull << (level % 64);
  } else if (front) {
    n.prev = sim::kNoPid;
    n.next = q.head[li];
    nodes_[q.head[li] - 1].prev = pid;
    q.head[li] = pid;
  } else {
    n.next = sim::kNoPid;
    n.prev = q.tail[li];
    nodes_[q.tail[li] - 1].next = pid;
    q.tail[li] = pid;
  }
  ++q.size;
}

void LinuxLikeScheduler::bq_unlink(BitmapQueue& q, Node& n) {
  const auto li = static_cast<std::size_t>(n.level);
  const Pid pid = n.proc->pid();
  if (n.prev != sim::kNoPid) {
    nodes_[n.prev - 1].next = n.next;
  } else {
    TOCTTOU_CHECK(q.head[li] == pid, "run-queue link corruption");
    q.head[li] = n.next;
  }
  if (n.next != sim::kNoPid) {
    nodes_[n.next - 1].prev = n.prev;
  } else {
    TOCTTOU_CHECK(q.tail[li] == pid, "run-queue link corruption");
    q.tail[li] = n.prev;
  }
  if (q.head[li] == sim::kNoPid) {
    q.words[li / 64] &= ~(1ull << (n.level % 64));
  }
  n.proc = nullptr;
  n.prev = n.next = sim::kNoPid;
  n.cpu = sim::kNoCpu;
  --q.size;
}

int LinuxLikeScheduler::highest_level(const BitmapQueue& q) {
  for (int w = kWords - 1; w >= 0; --w) {
    const std::uint64_t word = q.words[static_cast<std::size_t>(w)];
    if (word != 0) return w * 64 + 63 - std::countl_zero(word);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// policy
// ---------------------------------------------------------------------------

CpuId LinuxLikeScheduler::place(const Process& p,
                                const std::vector<CpuId>& idle_cpus,
                                const std::vector<CpuId>& allowed_cpus) {
  TOCTTOU_CHECK(!allowed_cpus.empty(), "placement with empty affinity");
  // Prefer the last CPU if it is idle (cache affinity), then any idle CPU.
  if (!idle_cpus.empty()) {
    if (std::find(idle_cpus.begin(), idle_cpus.end(), p.last_cpu()) !=
        idle_cpus.end()) {
      return p.last_cpu();
    }
    return idle_cpus.front();
  }
  // No idle CPU: stay where we last ran if allowed, else least loaded.
  if (std::find(allowed_cpus.begin(), allowed_cpus.end(), p.last_cpu()) !=
      allowed_cpus.end()) {
    return p.last_cpu();
  }
  CpuId best = allowed_cpus.front();
  std::size_t best_depth = bq(best).size;
  for (CpuId c : allowed_cpus) {
    if (bq(c).size < best_depth) {
      best = c;
      best_depth = bq(c).size;
    }
  }
  return best;
}

void LinuxLikeScheduler::enqueue(Process& p, CpuId cpu, bool front) {
  BitmapQueue& q = bq(cpu);
  bq_link(q, p, front);
  node(p.pid()).cpu = cpu;
}

Process* LinuxLikeScheduler::pick_next(CpuId cpu) {
  BitmapQueue& q = bq(cpu);
  int level;
  while ((level = highest_level(q)) >= 0) {
    Node& n = nodes_[q.head[static_cast<std::size_t>(level)] - 1];
    Process* p = n.proc;
    bq_unlink(q, n);
    if (p->state() == sim::ProcState::ready) return p;
    // Stale entry (e.g. removed process); skip it.
  }
  return nullptr;
}

Process* LinuxLikeScheduler::steal(CpuId thief) {
  // Pull from the most loaded queue; take the TAIL of its lowest
  // priority level (the task that would otherwise wait longest), if its
  // affinity allows the thief CPU.
  const std::size_t n_cpus = bqueues_.size();
  CpuId victim_cpu = sim::kNoCpu;
  std::size_t best = 0;
  for (std::size_t c = 0; c < n_cpus; ++c) {
    if (static_cast<CpuId>(c) == thief) continue;
    const std::size_t depth = bqueues_[c].size;
    if (depth > best) {
      best = depth;
      victim_cpu = static_cast<CpuId>(c);
    }
  }
  if (victim_cpu == sim::kNoCpu) return nullptr;
  BitmapQueue& q = bq(victim_cpu);
  for (int w = 0; w < kWords; ++w) {
    std::uint64_t word = q.words[static_cast<std::size_t>(w)];
    while (word != 0) {
      const int level = w * 64 + std::countr_zero(word);
      word &= word - 1;  // clear the lowest set bit
      for (Pid pid = q.tail[static_cast<std::size_t>(level)];
           pid != sim::kNoPid;) {
        Node& n = nodes_[pid - 1];
        const Pid prev = n.prev;
        Process* p = n.proc;
        if (p->state() == sim::ProcState::ready &&
            (p->affinity_mask() & (1ull << thief))) {
          bq_unlink(q, n);
          return p;
        }
        pid = prev;
      }
    }
  }
  return nullptr;
}

std::vector<Process*> LinuxLikeScheduler::pick_candidates(CpuId cpu) const {
  std::vector<Process*> out;
  const BitmapQueue& q = bq(cpu);
  for (int w = kWords - 1; w >= 0; --w) {
    std::uint64_t word = q.words[static_cast<std::size_t>(w)];
    while (word != 0) {
      const int level = w * 64 + 63 - std::countl_zero(word);
      word &= ~(1ull << (level % 64));
      for (Pid pid = q.head[static_cast<std::size_t>(level)];
           pid != sim::kNoPid; pid = nodes_[pid - 1].next) {
        Process* p = nodes_[pid - 1].proc;
        if (p->state() == sim::ProcState::ready) out.push_back(p);
      }
      if (!out.empty()) return out;  // highest level with a ready task
    }
  }
  return out;
}

bool LinuxLikeScheduler::take(Process& p, CpuId cpu) {
  if (p.pid() == sim::kNoPid || nodes_.size() < p.pid()) return false;
  Node& n = nodes_[p.pid() - 1];
  if (n.cpu != cpu) return false;
  bq_unlink(bq(cpu), n);
  return true;
}

void LinuxLikeScheduler::remove(const Process& p) {
  if (p.pid() == sim::kNoPid || nodes_.size() < p.pid()) return;
  Node& n = nodes_[p.pid() - 1];
  if (n.cpu == sim::kNoCpu) return;
  bq_unlink(bq(n.cpu), n);
}

bool LinuxLikeScheduler::should_preempt(const Process& woken,
                                        const Process& running) const {
  if (woken.priority() > running.priority()) return true;
  if (params_.wake_preempts_equal_priority &&
      woken.priority() == running.priority()) {
    return true;
  }
  return false;
}

bool LinuxLikeScheduler::should_yield_on_expiry(const Process& running,
                                                CpuId cpu) const {
  const BitmapQueue& q = bq(cpu);
  const int floor = running.priority() + kPrioBias;
  for (int w = kWords - 1; w >= floor / 64; --w) {
    std::uint64_t word = q.words[static_cast<std::size_t>(w)];
    if (w == floor / 64 && floor % 64 != 0) {
      word &= ~0ull << (floor % 64);
    }
    while (word != 0) {
      const int level = w * 64 + 63 - std::countl_zero(word);
      word &= ~(1ull << (level % 64));
      for (Pid pid = q.head[static_cast<std::size_t>(level)];
           pid != sim::kNoPid; pid = nodes_[pid - 1].next) {
        if (nodes_[pid - 1].proc->state() == sim::ProcState::ready) {
          return true;
        }
      }
    }
  }
  return false;
}

Duration LinuxLikeScheduler::fresh_slice(const Process& p) const {
  (void)p;
  return params_.timeslice;
}

std::size_t LinuxLikeScheduler::queue_depth(CpuId cpu) const {
  return bq(cpu).size;
}

void LinuxLikeScheduler::hash_state(StateHasher& h) const {
  // Per CPU: the depth, then the levels that hold entries, in descending
  // priority, each with its priority and its FIFO of pids. (The bitmap
  // never retains a drained level, so level count == set-bit count.)
  h.u64(bqueues_.size());
  for (const BitmapQueue& q : bqueues_) {
    h.u64(q.size);
    std::uint64_t levels = 0;
    for (const std::uint64_t w : q.words) {
      levels += static_cast<std::uint64_t>(std::popcount(w));
    }
    h.u64(levels);
    for (int w = kWords - 1; w >= 0; --w) {
      std::uint64_t word = q.words[static_cast<std::size_t>(w)];
      while (word != 0) {
        const int level = w * 64 + 63 - std::countl_zero(word);
        word &= ~(1ull << (level % 64));
        h.i64(level - kPrioBias);
        std::uint64_t len = 0;
        for (Pid pid = q.head[static_cast<std::size_t>(level)];
             pid != sim::kNoPid; pid = nodes_[pid - 1].next) {
          ++len;
        }
        h.u64(len);
        for (Pid pid = q.head[static_cast<std::size_t>(level)];
             pid != sim::kNoPid; pid = nodes_[pid - 1].next) {
          h.u64(pid);
        }
      }
    }
  }
}

}  // namespace tocttou::sched
