// Kernel semaphore (binary, FIFO), modeling the Linux 2.6 per-inode
// `i_sem` that arbitrates the races in the paper: whichever process
// acquires the semaphore first delays the other's metadata operation —
// the "cascading effect" of Section 6.1.
//
// Semaphores are passive data owned by their creator (the VFS attaches
// one to every inode); all state transitions are performed by the Kernel.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tocttou/common/state_hash.h"
#include "tocttou/sim/ids.h"

namespace tocttou::sim {

class CloneMap;
class Kernel;

/// FIFO of waiting pids. A plain vector with a consumed-prefix offset:
/// an idle queue owns NO heap allocation, which matters because every
/// inode embeds a Semaphore and a machine-scale round stages 10^5
/// inodes (a std::deque would allocate a 512-byte chunk each). The offset
/// resets whenever the queue drains, which every waiter queue does —
/// wakeups always drain the FIFO — so the buffer never creeps.
class PidQueue {
 public:
  bool empty() const { return head_ == buf_.size(); }
  std::size_t size() const { return buf_.size() - head_; }
  Pid front() const { return buf_[head_]; }
  void push_back(Pid p) { buf_.push_back(p); }
  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    }
  }
  void clear() {
    buf_.clear();
    head_ = 0;
  }

  const Pid* begin() const { return buf_.data() + head_; }
  const Pid* end() const { return buf_.data() + buf_.size(); }

 private:
  std::vector<Pid> buf_;
  std::size_t head_ = 0;
};

class Semaphore {
 public:
  explicit Semaphore(std::string name) : name_(std::move(name)) {}

  /// Checkpoint rebind: duplicates the semaphore for a cloned round.
  /// Owner/waiter Pids are stable across a clone (the process table is
  /// copied index-for-index), so no remapping is needed; the CloneMap
  /// parameter marks this as a deliberate clone-path copy.
  Semaphore(const Semaphore& o, CloneMap&)
      : name_(o.name_), owner_(o.owner_), waiters_(o.waiters_) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  const std::string& name() const { return name_; }
  bool held() const { return owner_ != kNoPid; }
  Pid owner() const { return owner_; }
  std::size_t waiters() const { return waiters_.size(); }

  /// Canonical state digest (DESIGN.md §10). The name doubles as the
  /// semaphore's identity: inode semaphores are named "i_sem:<ino>", so
  /// hashing by name is consistent with the raw-ino hashing of the Vfs.
  void hash_state(StateHasher& h) const {
    h.str(name_);
    h.u64(owner_);
    h.u64(waiters_.size());
    for (Pid p : waiters_) h.u64(p);
  }

 private:
  friend class Kernel;
  std::string name_;
  Pid owner_ = kNoPid;
  PidQueue waiters_;
};

/// A one-shot user-level event flag (futex-like), used by multithreaded
/// attack programs to hand work between threads (Section 7's pipelined
/// attacker). set() wakes all waiters; the flag stays set.
class EventFlag {
 public:
  explicit EventFlag(std::string name) : name_(std::move(name)) {}

  /// Checkpoint rebind (see Semaphore): Pids are clone-stable.
  EventFlag(const EventFlag& o, CloneMap&)
      : name_(o.name_), set_(o.set_), waiters_(o.waiters_) {}

  EventFlag(const EventFlag&) = delete;
  EventFlag& operator=(const EventFlag&) = delete;

  const std::string& name() const { return name_; }
  bool is_set() const { return set_; }
  void reset() { set_ = false; }

  /// Canonical state digest (DESIGN.md §10); see Semaphore::hash_state.
  void hash_state(StateHasher& h) const {
    h.str(name_);
    h.boolean(set_);
    h.u64(waiters_.size());
    for (Pid p : waiters_) h.u64(p);
  }

 private:
  friend class Kernel;
  std::string name_;
  bool set_ = false;
  PidQueue waiters_;
};

}  // namespace tocttou::sim
