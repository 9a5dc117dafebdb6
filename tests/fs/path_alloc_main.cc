// Standalone (gtest-free) allocation check for paths. A counting global
// operator new tallies every heap allocation in this process. Two
// requirements:
//
//  1. Copying, assigning and moving a Path allocate nothing: a copy
//     shares the parsed block.
//  2. A syscall allocates its op and nothing else: no copy of its path,
//     no final-name string. So after a warm-up round in a RoundContext,
//     a round's allocations minus its completed syscalls are the same,
//     within kSlack, for rounds of very different lengths. A symlink also
//     creates an inode, and every kChunkInodes-th new inode starts a
//     chunk, so a 16th of the round's symlinks comes off too. Two
//     scenarios, two seeds each, with metrics, journal and detector off:
//       - up/vi 100 KB, seeds mix_seed(1, 0) and mix_seed(1, 1): the
//         attacker's stat loop issues 2,483 and 4,933 syscalls;
//       - multicore gedit against the prefaulted attacker (stat, unlink
//         and symlink every iteration), seeds mix_seed(1, 0) and
//         mix_seed(1, 4): 199 and 512.
//     A walker that copied its path would add one allocation per walk.
//
// The syscall and symlink counts come from a journaled run of the same
// round, which takes the same schedule. Exits non-zero on a failed
// requirement.
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

#include "tocttou/common/path.h"
#include "tocttou/common/rng.h"
#include "tocttou/core/harness.h"
#include "tocttou/fs/inode.h"
#include "tocttou/programs/testbeds.h"

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Out of line, so that GCC does not pair an inlined free() with the
// new-expression and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace tocttou;

/// Rounds of one scenario may differ in net allocations by this much:
/// a container that grows once more, or a chunk that a 16th of the
/// symlinks does not quite account for.
constexpr long kSlack = 2;

struct Calls {
  std::size_t syscalls = 0;  // completed
  std::size_t symlinks = 0;  // of those, symlinks that made their inode
};

/// What `cfg`'s round completes: its journal's records.
Calls calls_of(core::ScenarioConfig cfg) {
  cfg.record_journal = true;
  const core::RoundResult r = core::run_round(cfg);
  const trace::SyscallJournal& journal = r.trace.journal;
  Calls c;
  c.syscalls = journal.records().size();
  for (const trace::SyscallRecord& rec : journal.records()) {
    if (journal.name(rec) == "symlink" && rec.result == Errno::ok) {
      ++c.symlinks;
    }
  }
  return c;
}

/// Measures `cfg`'s rounds at seeds mix_seed(1, 0) and
/// mix_seed(1, stream2) in one context, after a warm-up round.
bool check_scenario(const char* name, core::ScenarioConfig cfg,
                    std::uint64_t stream2) {
  core::RoundContext ctx;
  cfg.seed = mix_seed(1, 0);
  core::run_round(cfg, &ctx);  // warm-up: stages the template
  long first_net = 0;
  bool ok = true;
  for (const std::uint64_t stream : {std::uint64_t{0}, stream2}) {
    cfg.seed = mix_seed(1, stream);
    const Calls calls = calls_of(cfg);
    const std::size_t before = g_allocations;
    core::run_round(cfg, &ctx);
    const std::size_t made = g_allocations - before;
    const long net = static_cast<long>(made - calls.syscalls -
                                       calls.symlinks / fs::kChunkInodes);
    std::printf("%s, seed mix_seed(1, %llu): %zu syscalls (%zu symlinks), "
                "%zu allocations, %ld net\n",
                name, static_cast<unsigned long long>(stream), calls.syscalls,
                calls.symlinks, made, net);
    if (stream == 0) {
      first_net = net;
    } else if (net - first_net > kSlack || first_net - net > kSlack) {
      std::printf("FAIL: %s rounds' allocations grow with their syscalls "
                  "(%ld and %ld net, more than %ld apart)\n",
                  name, first_net, net, kSlack);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main() {
  bool ok = true;

  // 1. Copies of a Path.
  const Path watched("/home/alice/report.txt");
  Path other("/tmp/dummy");
  const std::size_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) {
    Path copy = watched;
    other = copy;
    Path moved = std::move(copy);
    other = std::move(moved);
  }
  const std::size_t copied = g_allocations - before;
  std::printf("4,000 copies, assignments and moves of a Path: %zu "
              "allocations\n",
              copied);
  if (copied != 0) {
    std::printf("FAIL: copying a Path allocated\n");
    ok = false;
  }

  // 2. Rounds' allocations against their syscalls.
  core::ScenarioConfig up;
  up.profile = programs::testbed_uniprocessor_xeon();
  up.victim = core::VictimKind::vi;
  up.attacker = core::AttackerKind::naive;
  up.file_bytes = 100 * 1024;
  ok = check_scenario("up/vi 100 KB", up, 1) && ok;

  core::ScenarioConfig mc;
  mc.profile = programs::testbed_multicore_pentium_d();
  mc.victim = core::VictimKind::gedit;
  mc.attacker = core::AttackerKind::prefaulted;
  ok = check_scenario("multicore gedit prefaulted", mc, 4) && ok;

  return ok ? 0 : 1;
}
