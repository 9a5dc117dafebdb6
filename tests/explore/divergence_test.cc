// Divergence accounting: a schedule whose forced prefix no longer
// matches the choice sites its run reaches is a divergence error,
// counted once however deep the sweep goes. Rounds are deterministic,
// so the test breaks determinism on purpose.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "tocttou/explore/explorer.h"
#include "tocttou/sim/fields.h"

namespace tocttou::explore {
namespace {

/// Computes `each` three times, then exits.
class ThriceProgram final : public sim::Listed<ThriceProgram, sim::Program> {
 public:
  explicit ThriceProgram(Duration each) : each_(each) {}

  static auto fields(auto& p) { return std::tie(p.each_, p.done_); }

  sim::Action next(sim::ProgramContext& ctx) override {
    (void)ctx;
    if (done_ == 3) return sim::Action::exit_proc();
    ++done_;
    return sim::Action::compute(each_);
  }

 private:
  Duration each_;
  int done_ = 0;
};

/// SMP vi with a bystander that breaks determinism: the first 8 rounds
/// built from scratch (the policy schedules of 8 think buckets) see it
/// compute 30 us per step, every later one 900 us. A parent replayed
/// from scratch then reaches other choice sites than it recorded, and
/// so do the children that replay its prefix. Forks copy the
/// bystander's state and never call the factory.
core::ScenarioConfig drifting_smp_vi() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_smp_dual_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 7;
  auto fresh_rounds = std::make_shared<int>(0);
  c.extra_programs.push_back(
      {"drift", 0, 0, [fresh_rounds](fs::Vfs&) {
         const Duration each = (*fresh_rounds)++ < 8 ? Duration::micros(30)
                                                     : Duration::micros(900);
         return std::make_unique<ThriceProgram>(each);
       }});
  return c;
}

TEST(DivergenceTest, CountsEachDivergedScheduleOnce) {
  for (int bound : {1, 2, 3}) {
    SCOPED_TRACE("bound=" + std::to_string(bound));
    ExploreConfig ecfg;
    ecfg.think_buckets = 8;
    ecfg.preemption_bound = bound;
    ecfg.jobs = 1;
    const ExploreResult res = explore(drifting_smp_vi(), ecfg);
    // Two schedules diverge from their forced prefix, whatever the
    // bound: each is one schedule, reduced once.
    EXPECT_EQ(res.divergence_errors, 2);
    EXPECT_EQ(static_cast<std::uint64_t>(res.schedules) -
                  res.metrics.counter("explore.leaves_executed") -
                  res.metrics.counter("explore.hash_merges"),
              2u);
  }
}

}  // namespace
}  // namespace tocttou::explore
