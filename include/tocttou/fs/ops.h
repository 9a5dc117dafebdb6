// Syscall op factories: one ServiceOp per modeled call (DESIGN.md §4).
//
// A factory takes only the call's operands: the op reaches the Vfs
// through its context and returns its result (an errno; stat, lstat and
// fstat a StatBuf, open an fd, readlink the target) through its process's
// result record, so it points at nothing. Paths must be absolute; pass a
// program's prebuilt Path (the op keeps a handle to it).
#pragma once

#include <memory>

#include "tocttou/common/path.h"
#include "tocttou/fs/types.h"
#include "tocttou/sim/service.h"

namespace tocttou::fs {

std::unique_ptr<sim::ServiceOp> stat_op(Path path);
std::unique_ptr<sim::ServiceOp> lstat_op(Path path);
std::unique_ptr<sim::ServiceOp> access_op(Path path);
std::unique_ptr<sim::ServiceOp> open_op(Path path, OpenFlags flags,
                                        Mode mode);
std::unique_ptr<sim::ServiceOp> rename_op(Path oldpath, Path newpath);
std::unique_ptr<sim::ServiceOp> unlink_op(Path path);
std::unique_ptr<sim::ServiceOp> symlink_op(Path target, Path linkpath);
std::unique_ptr<sim::ServiceOp> chmod_op(Path path, Mode mode);
std::unique_ptr<sim::ServiceOp> chown_op(Path path, sim::Uid uid,
                                         sim::Gid gid);
std::unique_ptr<sim::ServiceOp> mkdir_op(Path path, Mode mode);
std::unique_ptr<sim::ServiceOp> readlink_op(Path path);
std::unique_ptr<sim::ServiceOp> link_op(Path oldpath, Path newpath);

// fd-based calls: they operate on the open file description and do NO
// path resolution, so a concurrent rename/unlink/symlink of the name
// cannot redirect them — the classic TOCTTOU remedy (fchown(fd) for
// chown(path); see the defended victims and the defense bench).
std::unique_ptr<sim::ServiceOp> close_op(int fd);
std::unique_ptr<sim::ServiceOp> write_op(int fd, std::uint64_t bytes);
std::unique_ptr<sim::ServiceOp> read_op(int fd, std::uint64_t bytes);
std::unique_ptr<sim::ServiceOp> fstat_op(int fd);
std::unique_ptr<sim::ServiceOp> fchmod_op(int fd, Mode mode);
std::unique_ptr<sim::ServiceOp> fchown_op(int fd, sim::Uid uid,
                                          sim::Gid gid);

}  // namespace tocttou::fs
