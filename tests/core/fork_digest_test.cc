// Checkpoint forks and state digests of every op and program kind.
//
// The clone and the digest of every syscall op and program are derived
// from one field list (sim/fields.h). These rounds make a fork at every
// kernel event and check that its digest is hashable and equals the
// parent's; at a sample of events they fork a child, fork a grandchild
// from it, destroy the child and drive the grandchild to the end, whose
// RoundResult — journal included — must equal an unforked run's. A
// pointer the clone failed to rebind would point into the destroyed
// child (or the parent), which ASan reports and the comparison catches.
//
// The rounds cover every victim x attacker pair on the SMP testbed, a
// round with 16 tenant processes, and two SyscallTour programs that
// between them issue all 18 Vfs syscall factories in one shared
// directory, so some of their walks block on a held directory semaphore.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "tocttou/common/state_hash.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/core/round_run.h"
#include "tocttou/programs/testbeds.h"
#include "tocttou/sim/fields.h"

namespace tocttou::core {
namespace {

constexpr const char* kTourDir = "/tmp/tour";

/// Loops three times over every Vfs syscall factory on its own names in
/// kTourDir, sleeping briefly between calls so that two tours share the
/// CPUs. Holds one output slot of each kind (errno, stat, open result,
/// readlink target), so in-flight ops point into it.
class SyscallTour final : public sim::Listed<SyscallTour, sim::Program> {
 public:
  SyscallTour(fs::Vfs& vfs, int id) : vfs_(&vfs), id_(id) {}

  static auto fields(auto& self) {
    return std::tie(self.vfs_, self.id_, self.step_, self.laps_, self.gap_,
                    self.err_, self.st_, self.open_, self.link_);
  }

  sim::Action next(sim::ProgramContext& ctx) override {
    (void)ctx;
    gap_ = !gap_;
    if (gap_) return sim::Action::sleep_for(Duration::micros(3));
    if (step_ == kSteps) {
      step_ = 0;
      if (++laps_ == 3) return sim::Action::exit_proc();
    }
    return sim::Action::service(op(step_++));
  }

 private:
  static constexpr int kSteps = 22;

  std::string path(const char* stem) const {
    return strfmt("%s/%s%d", kTourDir, stem, id_);
  }

  std::unique_ptr<sim::ServiceOp> op(int step) {
    fs::Vfs& v = *vfs_;
    switch (step) {
      case 0: return v.mkdir_op(kTourDir, 0777, &err_);
      case 1: return v.mkdir_op(path("d"), 0755, &err_);
      case 2:
        return v.open_op(path("f"), fs::OpenFlags::write_create_trunc(), 0644,
                         &open_);
      case 3: return v.write_op(open_.fd, 4096, &err_);
      case 4: return v.fstat_op(open_.fd, &st_, &err_);
      case 5: return v.fchmod_op(open_.fd, 0600, &err_);
      case 6: return v.fchown_op(open_.fd, 0, 0, &err_);
      case 7: return v.close_op(open_.fd, &err_);
      case 8:
        return v.open_op(path("f"), fs::OpenFlags::read_only(), 0, &open_);
      case 9: return v.read_op(open_.fd, 1024, &err_);
      case 10: return v.close_op(open_.fd, &err_);
      case 11: return v.stat_op(path("f"), &st_, &err_);
      case 12: return v.access_op(path("f"), &err_);
      case 13: return v.symlink_op(path("f"), path("s"), &err_);
      case 14: return v.lstat_op(path("s"), &st_, &err_);
      case 15: return v.readlink_op(path("s"), &link_, &err_);
      case 16: return v.link_op(path("f"), path("h"), &err_);
      case 17: return v.rename_op(path("h"), path("r"), &err_);
      case 18: return v.chmod_op(path("r"), 0644, &err_);
      case 19: return v.chown_op(path("s"), 0, 0, &err_);
      case 20: return v.unlink_op(path("r"), &err_);
      default: return v.unlink_op(path("s"), &err_);
    }
  }

  fs::Vfs* vfs_;
  int id_;
  int step_ = 0;
  int laps_ = 0;
  bool gap_ = false;
  Errno err_ = Errno::ok;
  fs::StatBuf st_;
  fs::OpenResult open_;
  std::string link_;
};

ScenarioConfig smp(VictimKind victim, AttackerKind attacker) {
  ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = victim;
  c.attacker = attacker;
  c.file_bytes = 4096;
  c.seed = 7;
  c.record_journal = true;
  c.collect_metrics = true;
  return c;
}

/// Everything a round reports that a fork must reproduce.
struct Surface {
  bool success = false;
  bool victim_completed = false;
  bool hit_time_limit = false;
  bool attacker_finished = false;
  int attacker_iterations = 0;
  std::uint64_t events = 0;
  std::int64_t end_ns = 0;
  std::string journal;
  std::string metrics;
  std::vector<std::string> audit;
  std::string token;

  bool operator==(const Surface&) const = default;
};

Surface surface_of(const RoundResult& r) {
  return Surface{r.success,           r.victim_completed,
                 r.hit_time_limit,    r.attacker_finished,
                 r.attacker_iterations, r.events,
                 r.end_time.ns(),     r.trace.journal.to_csv(),
                 r.metrics.to_json(), r.audit_violations,
                 r.schedule_token};
}

StateHasher::Digest digest_of(const RoundRun& run) {
  StateHasher h;
  run.hash_state(h);
  EXPECT_TRUE(h.hashable());
  return h.digest();
}

/// Forks at every event (digest check) and drives a grandchild to the
/// end at about eight evenly spaced events (result check).
void check_forks(const ScenarioConfig& cfg) {
  const Surface want = surface_of(RoundRun(cfg).finish());
  ASSERT_GT(want.events, 0u);
  const std::uint64_t every = want.events / 8 + 1;
  RoundRun run(cfg);
  int grandchildren = 0;
  do {
    const RoundRun fork(run);
    ASSERT_EQ(digest_of(fork), digest_of(run))
        << "event " << run.events_executed();
    if (run.events_executed() % every != 0) continue;
    auto child = std::make_unique<RoundRun>(run);
    RoundRun grandchild(*child);
    child.reset();
    ASSERT_EQ(surface_of(grandchild.finish()), want)
        << "grandchild forked at event " << run.events_executed();
    ++grandchildren;
  } while (run.step());
  EXPECT_GE(grandchildren, 8);
  EXPECT_EQ(surface_of(run.finish()), want);
}

struct Pair {
  VictimKind victim;
  AttackerKind attacker;

  std::string name() const {
    return std::string(to_string(victim)) + "_" + to_string(attacker);
  }
};

void PrintTo(const Pair& p, std::ostream* os) { *os << p.name(); }

std::vector<Pair> all_pairs() {
  std::vector<Pair> out;
  for (VictimKind v : {VictimKind::vi, VictimKind::gedit,
                       VictimKind::suspending, VictimKind::sendmail}) {
    for (AttackerKind a : {AttackerKind::naive, AttackerKind::prefaulted,
                           AttackerKind::pipelined}) {
      out.push_back({v, a});
    }
  }
  return out;
}

class ForkDigestPairTest : public ::testing::TestWithParam<Pair> {};

TEST_P(ForkDigestPairTest, ForksMatchTheirParent) {
  check_forks(smp(GetParam().victim, GetParam().attacker));
}

INSTANTIATE_TEST_SUITE_P(SmpPairs, ForkDigestPairTest,
                         ::testing::ValuesIn(all_pairs()),
                         [](const ::testing::TestParamInfo<Pair>& info) {
                           return info.param.name();
                         });

TEST(ForkDigestTest, SyscallToursInOneDirectory) {
  // No attacker: the victim works alone in its own directory, so every
  // semaphore wait in the round is one tour waiting on the other. Two
  // more CPUs let the tours run side by side while the victim thinks,
  // long enough for both to finish.
  ScenarioConfig cfg = smp(VictimKind::vi, AttackerKind::none);
  cfg.profile.machine.n_cpus = 4;
  cfg.victim_think = Duration::millis(4);
  for (int id = 0; id < 2; ++id) {
    ScenarioConfig::ExtraProgram ep;
    ep.name = strfmt("tour/%d", id);
    ep.make = [id](fs::Vfs& vfs) {
      return std::make_unique<SyscallTour>(vfs, id);
    };
    cfg.extra_programs.push_back(std::move(ep));
  }
  const RoundResult r = RoundRun(cfg).finish();
  for (const char* op :
       {"stat", "lstat", "access", "open", "close", "write", "read",
        "rename", "unlink", "symlink", "chmod", "chown", "mkdir", "readlink",
        "link", "fstat", "fchmod", "fchown"}) {
    EXPECT_GT(r.metrics.counter(std::string("kernel.syscalls.") + op), 0u)
        << op;
  }
  const metrics::Histogram* waits = r.metrics.histogram("fs.sem_wait_ns");
  ASSERT_NE(waits, nullptr);
  EXPECT_GT(waits->count(), 0u);
  check_forks(cfg);
}

TEST(ForkDigestTest, SixteenTenants) {
  ScenarioConfig cfg = smp(VictimKind::vi, AttackerKind::naive);
  std::string err;
  ASSERT_TRUE(programs::BackgroundSpec::parse("procs=16", &cfg.background,
                                              &err))
      << err;
  check_forks(cfg);
}

}  // namespace
}  // namespace tocttou::core
