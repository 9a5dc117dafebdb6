// Profiles the explorer's schedule reduction (DESIGN.md §10): canonical
// state hashing with donor merging, on against off. Two legs, both with
// bit-identical-results CHECKs (hashing is a throughput feature, never
// a semantic one):
//
//   1. up/vi exhaustive at preemption bound 5 — hashing on vs off.
//      The acceptance ratio lives here: with checkpointing on, state
//      merging executes at most HALF the enumerated schedules
//      (schedules / leaves_executed >= 2), CHECKed, not just reported.
//   2. A three-process sweep (victim + attacker + a compute-bound
//      bystander spawned through ScenarioConfig::extra_programs). The
//      bystander multiplies scheduling choice sites without touching
//      the filesystem, which is exactly the redundancy state hashing
//      collapses: the sweep completes under a schedule budget that full
//      per-leaf execution only clears by burning the merged leaves'
//      wall time too.
//
//   ./bench_explore_reduction [output.json]
//
// Defaults to BENCH_explore_reduction.json in the working directory.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "tocttou/common/error.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/explore/explorer.h"
#include "tocttou/sim/program.h"

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

core::ScenarioConfig up_vi() {
  core::ScenarioConfig c;
  c.profile = programs::testbed_uniprocessor_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = 7;
  return c;
}

/// A coarse-grain compute-only bystander: spins in 100µs blocks and
/// exits. No syscalls, so orderings against it rarely change the file
/// system's fate, and its state machine is one counter, so merged
/// states stay hashable. (LivelockProgram's 100ns
/// grain would blow the step budget here; this spinner exists to add
/// scheduling choice, not load.)
class CoarseSpinner : public sim::Program {
 public:
  explicit CoarseSpinner(int blocks) : blocks_(blocks) {}

  sim::Action next(sim::ProgramContext&) override {
    if (done_ >= blocks_) return sim::Action::exit_proc();
    ++done_;
    return sim::Action::compute(Duration::micros(100), "spin");
  }

  std::unique_ptr<sim::Program> clone(sim::CloneMap&) const override {
    auto p = std::make_unique<CoarseSpinner>(blocks_);
    p->done_ = done_;
    return p;
  }

  void hash_state(StateHasher& h) const override {
    h.str("coarse_spinner");
    h.u64(static_cast<std::uint64_t>(blocks_));
    h.u64(static_cast<std::uint64_t>(done_));
  }

 private:
  int blocks_;
  int done_ = 0;
};

bool same_result(const explore::ExploreResult& a,
                 const explore::ExploreResult& b) {
  bool ok = a.schedules == b.schedules;
  ok = ok && a.rounds_executed == b.rounds_executed;
  ok = ok && a.policy_schedules == b.policy_schedules;
  ok = ok && a.exact_success == b.exact_success;
  ok = ok && a.total_mass == b.total_mass;
  ok = ok && a.successes == b.successes;
  ok = ok && a.schedules_to_first_hit == b.schedules_to_first_hit;
  ok = ok && a.witness.has_value() == b.witness.has_value();
  if (ok && a.witness) ok = a.witness->serialize() == b.witness->serialize();
  return ok;
}

struct LegReport {
  int schedules = 0;
  bool complete = false;
  double off_secs = 0.0;
  double on_secs = 0.0;
  std::uint64_t leaves_executed = 0;
  std::uint64_t hash_merges = 0;
  double execution_ratio = 0.0;  // schedules / leaves_executed
};

LegReport run_leg(const core::ScenarioConfig& cfg, int bound) {
  explore::ExploreConfig ecfg;
  ecfg.mode = explore::ExploreMode::exhaustive;
  ecfg.think_buckets = 2;
  ecfg.preemption_bound = bound;
  ecfg.max_schedules = 200000;
  ecfg.jobs = 1;
  ecfg.checkpoint = true;

  LegReport r;

  ecfg.state_hash = false;
  const auto t_off = Clock::now();
  const explore::ExploreResult off = explore::explore(cfg, ecfg);
  r.off_secs = seconds_since(t_off);

  ecfg.state_hash = true;
  const auto t_on = Clock::now();
  const explore::ExploreResult on = explore::explore(cfg, ecfg);
  r.on_secs = seconds_since(t_on);

  TOCTTOU_CHECK(same_result(off, on),
                "state hashing must not change exploration results");
  r.schedules = on.schedules;
  r.complete = on.complete;
  r.leaves_executed = on.metrics.counter("explore.leaves_executed");
  r.hash_merges = on.metrics.counter("explore.hash_merges");
  TOCTTOU_CHECK(r.leaves_executed > 0, "some leaves must execute");
  r.execution_ratio =
      static_cast<double>(r.schedules) / static_cast<double>(r.leaves_executed);
  return r;
}

std::string leg_json(const char* name, const LegReport& r) {
  std::string json = strfmt("  \"%s\": {\n", name);
  json += strfmt("    \"schedules\": %d, \"complete\": %s,\n", r.schedules,
                 r.complete ? "true" : "false");
  json += strfmt(
      "    \"off\": {\"secs\": %.3f, \"leaves_executed\": %d},\n", r.off_secs,
      r.schedules);
  json += strfmt(
      "    \"on\": {\"secs\": %.3f, \"leaves_executed\": %llu, "
      "\"hash_merges\": %llu},\n",
      r.on_secs, static_cast<unsigned long long>(r.leaves_executed),
      static_cast<unsigned long long>(r.hash_merges));
  json += strfmt("    \"execution_ratio\": %.4f}", r.execution_ratio);
  return json;
}

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;

  const char* out_path = argc > 1 ? argv[1] : "BENCH_explore_reduction.json";

  // Leg 1: the acceptance scenario. up/vi bound 5, hashing on vs off.
  const LegReport up = run_leg(up_vi(), /*bound=*/5);
  std::printf("up/vi bound=5        %4d schedules   off %6.2fs   on %6.2fs\n",
              up.schedules, up.off_secs, up.on_secs);
  std::printf("  executed %llu of %d leaves (%.2fx fewer)   merges=%llu\n",
              static_cast<unsigned long long>(up.leaves_executed),
              up.schedules, up.execution_ratio,
              static_cast<unsigned long long>(up.hash_merges));
  TOCTTOU_CHECK(up.execution_ratio >= 2.0,
                "state hashing must execute at most half the enumerated "
                "schedules on up/vi at bound 5");

  // Leg 2: three processes. The bystander's compute blocks only add
  // scheduling choice sites, so the schedule space grows while the set
  // of distinct states barely moves — the shape state hashing exists for.
  core::ScenarioConfig three = up_vi();
  three.extra_programs.push_back(
      {.name = "bystander",
       .uid = 0,
       .gid = 0,
       .make = [](fs::Vfs&) -> std::unique_ptr<sim::Program> {
         return std::make_unique<CoarseSpinner>(/*blocks=*/8);
       }});
  const LegReport tp = run_leg(three, /*bound=*/3);
  std::printf("3-proc bound=3       %4d schedules   off %6.2fs   on %6.2fs\n",
              tp.schedules, tp.off_secs, tp.on_secs);
  std::printf("  executed %llu of %d leaves (%.2fx fewer)   merges=%llu\n",
              static_cast<unsigned long long>(tp.leaves_executed),
              tp.schedules, tp.execution_ratio,
              static_cast<unsigned long long>(tp.hash_merges));
  TOCTTOU_CHECK(tp.complete,
                "three-process sweep must complete within the budget");
  TOCTTOU_CHECK(tp.hash_merges > 0,
                "the bystander's redundant interleavings must merge");

  std::string json = "{\n";
  json += "  \"bench\": \"explore_reduction\",\n";
  json +=
      "  \"optimization\": \"canonical state hashing with donor "
      "merging\",\n";
  json += strfmt("  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
  json += leg_json("up_vi_bound5", up) + ",\n";
  json += leg_json("three_process_bound3", tp) + ",\n";
  json += "  \"identical_results\": true\n";
  json += "}\n";

  std::ofstream f(out_path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  f << json;
  std::printf("wrote %s\n", out_path);
  return 0;
}
