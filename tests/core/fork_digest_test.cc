// Checkpoint forks and state digests of every op and program kind.
//
// A fork copies the round member by member and re-attaches its own sinks;
// the digest of every syscall op and program is derived from its field
// list (sim/fields.h). These rounds make a fork at every kernel event
// and check that its digest is hashable and equals the parent's; at a
// sample of events they fork a child, fork a grandchild from it, destroy
// the child and drive the grandchild to the end, whose RoundResult —
// journal included — must equal an unforked run's. A fork still tied to
// the destroyed child (or the parent) would read freed memory, which
// ASan reports, or write into the wrong streams, which the comparison
// catches.
//
// The rounds cover every victim x attacker pair on the SMP testbed, a
// round with 16 tenant processes, two SyscallTour programs that between
// them issue all 18 syscall factories (fs/ops.h) in one shared
// directory, so some of their walks block on a held directory semaphore,
// and a round with every sink attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "tocttou/common/state_hash.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/core/round_run.h"
#include "tocttou/fs/ops.h"
#include "tocttou/programs/testbeds.h"
#include "tocttou/sim/fields.h"
#include "tocttou/sim/process.h"

namespace tocttou::core {
namespace {

constexpr const char* kTourDir = "/tmp/tour";

/// Loops three times over every syscall factory on its own names in
/// kTourDir, sleeping briefly between calls so that two tours share the
/// CPUs. Keeps one field of each kind of result (errno, stat, open
/// result, readlink target), filled from each call's result.
class SyscallTour final : public sim::Listed<SyscallTour, sim::Program> {
 public:
  explicit SyscallTour(int id) : id_(id) {}

  static auto fields(auto& self) {
    return std::tie(self.id_, self.step_, self.laps_, self.gap_, self.err_,
                    self.st_, self.open_, self.link_);
  }

  sim::Action next(sim::ProgramContext& ctx) override {
    if (ctx.has_result()) take(ctx.result());
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
    switch (step) {
      case 0: return fs::mkdir_op(kTourDir, 0777);
      case 1: return fs::mkdir_op(path("d"), 0755);
      case 2:
        return fs::open_op(path("f"), fs::OpenFlags::write_create_trunc(),
                           0644);
      case 3: return fs::write_op(open_.fd, 4096);
      case 4: return fs::fstat_op(open_.fd);
      case 5: return fs::fchmod_op(open_.fd, 0600);
      case 6: return fs::fchown_op(open_.fd, 0, 0);
      case 7: return fs::close_op(open_.fd);
      case 8: return fs::open_op(path("f"), fs::OpenFlags::read_only(), 0);
      case 9: return fs::read_op(open_.fd, 1024);
      case 10: return fs::close_op(open_.fd);
      case 11: return fs::stat_op(path("f"));
      case 12: return fs::access_op(path("f"));
      case 13: return fs::symlink_op(path("f"), path("s"));
      case 14: return fs::lstat_op(path("s"));
      case 15: return fs::readlink_op(path("s"));
      case 16: return fs::link_op(path("f"), path("h"));
      case 17: return fs::rename_op(path("h"), path("r"));
      case 18: return fs::chmod_op(path("r"), 0644);
      case 19: return fs::chown_op(path("s"), 0, 0);
      case 20: return fs::unlink_op(path("r"));
      default: return fs::unlink_op(path("s"));
    }
  }

  /// Keeps the result of the call step_ - 1 issued, in the field of its
  /// kind: a StatBuf or link target only when the call succeeded.
  void take(const sim::SyscallResult& r) {
    switch (step_ - 1) {
      case 2:
      case 8:
        open_ = {r.fd, r.err};
        return;
      case 4:
      case 11:
      case 14:
        if (r.err == Errno::ok) st_ = r.stat;
        break;
      case 15:
        if (r.err == Errno::ok) link_ = r.link.str();
        break;
      default:
        break;
    }
    err_ = r.err;
  }

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
    ep.make = [id](fs::Vfs&) { return std::make_unique<SyscallTour>(id); };
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

/// What a round with every sink attached reports beyond Surface: the
/// detector's report and CSV, the event log's CSV and the fault stats.
struct SinkSurface {
  Surface base;
  std::string detect;
  std::string detect_csv;
  std::string events_csv;
  std::string faults;

  bool operator==(const SinkSurface&) const = default;
};

SinkSurface sinks_of(const RoundResult& r) {
  return SinkSurface{surface_of(r), r.detect.summary(), r.detect.to_csv(),
                     r.trace.log.to_csv(), r.faults.summary()};
}

TEST(ForkDigestTest, EverySinkSurvivesAFork) {
  // The sync log (detect), the event log (record_events) and the fault
  // injector, beside the journal and metrics: a grandchild of a
  // destroyed child must write into its own copy of each. The spike plan
  // makes the round unhashable, so no digest is compared. Smp gedit
  // against the pipelined attacker puts the flag handoff in the sync log.
  ScenarioConfig cfg = smp(VictimKind::gedit, AttackerKind::pipelined);
  cfg.detect = true;
  cfg.record_events = true;
  std::string err;
  ASSERT_TRUE(sim::FaultPlan::parse("spike:0.05:us=20", &cfg.faults, &err))
      << err;
  const RoundResult whole = RoundRun(cfg).finish();
  ASSERT_GT(whole.faults.latency_spikes, 0u);
  ASSERT_TRUE(std::any_of(whole.sync.events().begin(),
                          whole.sync.events().end(),
                          [](const detect::SyncEvent& e) {
                            return e.kind == detect::SyncKind::flag_set;
                          }));
  const SinkSurface want = sinks_of(whole);
  const std::uint64_t every = want.base.events / 8 + 1;
  RoundRun run(cfg);
  int grandchildren = 0;
  do {
    if (run.events_executed() % every != 0) continue;
    auto child = std::make_unique<RoundRun>(run);
    RoundRun grandchild(*child);
    child.reset();
    ASSERT_EQ(sinks_of(grandchild.finish()), want)
        << "grandchild forked at event " << run.events_executed();
    ++grandchildren;
  } while (run.step());
  EXPECT_GE(grandchildren, 8);
  EXPECT_EQ(sinks_of(run.finish()), want);
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
