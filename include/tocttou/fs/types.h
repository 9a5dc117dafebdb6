// Basic file-system types shared by the VFS and programs.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>

#include "tocttou/common/error.h"
#include "tocttou/sim/ids.h"

namespace tocttou::fs {

/// Inode number. 0 is invalid.
using Ino = std::uint64_t;
inline constexpr Ino kNoIno = 0;

enum class FileType { regular, directory, symlink };

const char* to_string(FileType t);

/// Permission bits (lower 9 bits of st_mode, rwxrwxrwx).
using Mode = std::uint16_t;
inline constexpr Mode kModeDefaultFile = 0644;
inline constexpr Mode kModeDefaultDir = 0755;

/// Result of stat/lstat as observed by a program: a snapshot of the
/// inode's attributes at the instant of the final lookup. This is the
/// attacker's entire view of the victim — detection means "st_uid == 0 &&
/// st_gid == 0" (Figures 2 and 4).
struct StatBuf {
  Ino ino = kNoIno;
  FileType type = FileType::regular;
  sim::Uid uid = 0;
  sim::Gid gid = 0;
  Mode mode = 0;
  std::uint64_t size_bytes = 0;

  bool is_symlink() const { return type == FileType::symlink; }
  bool owned_by_root() const { return uid == 0 && gid == 0; }

  /// Field list (sim/fields.h).
  static auto fields(auto& s) {
    return std::tie(s.ino, s.type, s.uid, s.gid, s.mode, s.size_bytes);
  }
};

/// Open flags (subset).
struct OpenFlags {
  bool write = false;
  bool create = false;
  bool truncate = false;
  bool excl = false;

  static OpenFlags read_only() { return {}; }
  static OpenFlags write_create_trunc() { return {true, true, true, false}; }

  static auto fields(auto& s) {
    return std::tie(s.write, s.create, s.truncate, s.excl);
  }
};

/// What a program keeps of an open(): the fd (-1 when it failed).
struct OpenResult {
  int fd = -1;
  Errno err = Errno::ok;

  static auto fields(auto& s) { return std::tie(s.fd, s.err); }
};

}  // namespace tocttou::fs
