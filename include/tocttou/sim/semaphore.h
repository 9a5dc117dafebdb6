// Kernel semaphore (binary, FIFO), modeling the Linux 2.6 per-inode
// `i_sem` that arbitrates the races in the paper: whichever process
// acquires the semaphore first delays the other's metadata operation —
// the "cascading effect" of Section 6.1.
//
// Semaphores are passive data owned by their creator (the VFS attaches
// one to every inode); all state transitions are performed by the Kernel.
// Both kinds of sync object are plain data: a semaphore is named by its
// inode's number and a flag by a view of the string literal it is built
// from, so neither owns a string; sem_label writes a semaphore's name
// only where a trace label or a metrics key prints it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tocttou/common/state_hash.h"
#include "tocttou/sim/ids.h"

namespace tocttou::sim {

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
  /// The semaphore of inode `ino`.
  explicit Semaphore(std::uint64_t ino) : ino_(ino) {}

  /// A checkpoint copies a semaphore as it is: its owner and waiters are
  /// Pids, stable across a clone (the process table is copied
  /// index-for-index), and nothing stores a pointer to it — processes
  /// count what they hold, and ops reach their semaphores through inode
  /// numbers.
  Semaphore(const Semaphore&) = default;
  Semaphore& operator=(const Semaphore&) = delete;

  std::uint64_t ino() const { return ino_; }
  bool held() const { return owner_ != kNoPid; }
  Pid owner() const { return owner_; }
  std::size_t waiters() const { return waiters_.size(); }

  /// Canonical state digest (DESIGN.md §10): the owner and the waiters.
  /// The inode number is left out: the owning inode hashes it.
  void hash_state(StateHasher& h) const {
    h.u64(owner_);
    h.u64(waiters_.size());
    for (Pid p : waiters_) h.u64(p);
  }

 private:
  friend class Kernel;
  std::uint64_t ino_;
  Pid owner_ = kNoPid;
  PidQueue waiters_;
};

/// "i_sem:<ino>", the name trace labels and metrics keys give the
/// semaphore of inode `ino`.
inline std::string sem_label(std::uint64_t ino) {
  return "i_sem:" + std::to_string(ino);
}

/// A one-shot user-level event flag (futex-like), used by multithreaded
/// attack programs to hand work between threads (Section 7's pipelined
/// attacker). set() wakes all waiters; the flag stays set.
class EventFlag {
 public:
  /// `name` must have static storage — build it from a string literal:
  /// processes, sync logs and checkpoint copies keep views of it.
  explicit EventFlag(std::string_view name) : name_(name) {}

  /// Copied as it is by a checkpoint (see Semaphore): Pids are
  /// clone-stable, and the name views static storage.
  EventFlag(const EventFlag&) = default;
  EventFlag& operator=(const EventFlag&) = delete;

  std::string_view name() const { return name_; }
  bool is_set() const { return set_; }
  void reset() { set_ = false; }

  /// Canonical state digest (DESIGN.md §10).
  void hash_state(StateHasher& h) const {
    h.str(name_);
    h.boolean(set_);
    h.u64(waiters_.size());
    for (Pid p : waiters_) h.u64(p);
  }

 private:
  friend class Kernel;
  std::string_view name_;
  bool set_ = false;
  PidQueue waiters_;
};

}  // namespace tocttou::sim
