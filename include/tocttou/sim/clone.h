// Pointer remapping for deep clones of simulation state.
//
// A RoundRun checkpoint deep-copies the whole simulation graph — Vfs,
// Kernel, processes, programs, service ops, fault injector, trace and
// metrics sinks. Those objects hold raw pointers into each other
// (syscall output slots into programs, the `Vfs*` of programs and ops,
// observer pointers into programs); nothing points into an inode, which
// ops name by number, or into a process, which pending events, run
// queues, semaphores and flags name by pid. CloneMap translates
// old-graph pointers to their new-graph equivalents: each cloned object
// registers the byte range it replaces, and interior pointers resolve
// by offset within a registered range. Ops and programs rebind their
// pointers through their field lists (sim/fields.h). An unmapped
// non-null pointer is a hard error — it means a clone path forgot to
// register state, which would silently couple the fork to its parent
// and break the fork==replay determinism contract (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tocttou/common/error.h"

namespace tocttou::sim {

class CloneMap {
 public:
  /// Declares that the `bytes`-sized object at `old_base` is replaced by
  /// the clone at `new_base`. Interior pointers (anywhere inside the
  /// range) remap to the same offset in the clone.
  void add_range(const void* old_base, void* new_base, std::size_t bytes) {
    ranges_.push_back(Range{reinterpret_cast<std::uintptr_t>(old_base),
                            reinterpret_cast<std::uintptr_t>(new_base),
                            bytes});
  }

  /// Translates a pointer into the old graph to its clone. Null maps to
  /// null; a non-null pointer outside every registered range fails hard.
  void* remap_raw(const void* old_ptr) const {
    if (old_ptr == nullptr) return nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(old_ptr);
    // Linear scan: a round registers one range per program plus a few
    // sinks, and most remaps hit the recently added ones — search
    // newest-first.
    for (auto it = ranges_.rbegin(); it != ranges_.rend(); ++it) {
      if (p >= it->old_base && p < it->old_base + it->bytes) {
        return reinterpret_cast<void*>(it->new_base + (p - it->old_base));
      }
    }
    TOCTTOU_CHECK(false, "clone: pointer into unregistered state");
    return nullptr;
  }

  template <typename T>
  T* remap(T* old_ptr) const {
    return static_cast<T*>(remap_raw(old_ptr));
  }

 private:
  struct Range {
    std::uintptr_t old_base;
    std::uintptr_t new_base;
    std::size_t bytes;
  };
  std::vector<Range> ranges_;
};

}  // namespace tocttou::sim
