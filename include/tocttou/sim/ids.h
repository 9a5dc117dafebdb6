// Identifier types shared across the simulated kernel.
#pragma once

#include <cstdint>

namespace tocttou::sim {

/// Simulated process id. Pid 0 is reserved (no process).
using Pid = std::uint32_t;
inline constexpr Pid kNoPid = 0;

/// CPU index, 0-based. -1 means "not on any CPU".
using CpuId = int;
inline constexpr CpuId kNoCpu = -1;

/// User / group ids, POSIX-style. Uid 0 is root.
using Uid = std::uint32_t;
using Gid = std::uint32_t;
inline constexpr Uid kRootUid = 0;
inline constexpr Gid kRootGid = 0;

/// An event flag: its index in the kernel's flag table (Kernel::add_flag).
using FlagId = std::uint32_t;

}  // namespace tocttou::sim
