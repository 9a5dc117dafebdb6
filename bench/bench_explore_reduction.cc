// Profiles the explorer's schedule reduction (DESIGN.md §10): canonical
// state hashing with donor merging, on against off, and the two
// per-site costs behind it — one checkpoint fork and one state digest.
// Every sweep pair CHECKs bit-identical results (hashing is a throughput
// feature, never a semantic one).
//
//   1. up/vi exhaustive at preemption bound 5 — the acceptance ratio:
//      with checkpointing on, state merging executes at most HALF the
//      enumerated schedules (schedules / leaves_executed >= 2), CHECKed,
//      not just reported.
//   2. A three-process sweep (victim + attacker + a compute-bound
//      bystander spawned through ScenarioConfig::extra_programs). The
//      bystander multiplies scheduling choice sites without touching
//      the filesystem, which is exactly the redundancy state hashing
//      collapses; the sweep must complete, with merges.
//   3. The timed sweep: up/vi 100 KB, 64 buckets, bound 3 (611
//      schedules), hashing off and on, interleaved, kTimedReps runs
//      each at 1 job. Legs 1 and 2 run in a fraction of a second, inside
//      their own run-to-run spread, so only their counts are reported.
//      The sweep's peak RSS is the VmHWM of a child process (this
//      binary re-run with --sweep-rss) that runs only the hashing-on
//      sweep, once.
//   4. Fork and digest cost: along the up/vi 100 KB round and an smp/vi
//      round with 256 tenants and 25,600 staged inodes, each shaped as
//      an explorer leaf runs it (canonical config, no journal), the wall
//      time of one RoundRun copy (a checkpoint fork) and of one
//      RoundRun::hash_state, at kSamples evenly spaced events. The up/vi
//      round is also sampled with the journal on, the shape of a leaf
//      that a leaf_observer or the detector reads. A counting operator
//      new gives the bytes and allocations of one fork at event 6,000 in
//      both shapes.
//
//   ./bench_explore_reduction [output.json]
//   ./bench_explore_reduction --smoke
//
// Defaults to BENCH_explore_reduction.json in the working directory.
// --smoke runs legs 1 and 2 with their CHECKs and the journal-off fork
// at event 6,000, prints their figures, and times nothing and writes no
// JSON (a tier-1 ctest).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/core/round_run.h"
#include "tocttou/explore/explorer.h"
#include "tocttou/sim/fields.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

// Out of line, so that GCC does not pair an inlined free() with the
// new-expression and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTimedReps = 5;
constexpr int kSamples = 25;

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

core::ScenarioConfig up_vi_100k() {
  core::ScenarioConfig c = up_vi();
  c.file_bytes = 102400;
  c.seed = 1;
  return c;
}

/// The round an explorer leaf runs for `cfg`: canonical config, and no
/// journal unless a leaf_observer or the detector reads one.
core::ScenarioConfig leaf_shape(core::ScenarioConfig cfg, bool journal) {
  cfg = explore::canonical_explore_config(cfg);
  cfg.record_journal = journal;
  return cfg;
}

core::ScenarioConfig smp_vi_machine() {
  core::ScenarioConfig c = up_vi();
  c.profile = programs::testbed_smp_dual_xeon();
  std::string err;
  TOCTTOU_CHECK(programs::BackgroundSpec::parse("procs=256,inodes=25600",
                                                &c.background, &err),
                err);
  return c;
}

/// A coarse-grain compute-only bystander: spins in 100µs blocks and
/// exits. No syscalls, so orderings against it rarely change the file
/// system's fate, and its state machine is one counter, so merged
/// states stay hashable. (LivelockProgram's 100ns
/// grain would blow the step budget here; this spinner exists to add
/// scheduling choice, not load.)
class CoarseSpinner : public sim::Listed<CoarseSpinner, sim::Program> {
 public:
  explicit CoarseSpinner(int blocks) : blocks_(blocks) {}

  static auto fields(auto& self) { return std::tie(self.blocks_, self.done_); }

  sim::Action next(sim::ProgramContext&) override {
    if (done_ >= blocks_) return sim::Action::exit_proc();
    ++done_;
    return sim::Action::compute(Duration::micros(100), "spin");
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

/// Median, lower and upper quartile of `v` (nearest rank).
struct Spread {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
};

Spread spread_of(std::vector<double> v) {
  TOCTTOU_CHECK(!v.empty(), "no samples");
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) +
                                      0.5)];
  };
  return Spread{at(0.5), at(0.25), at(0.75)};
}

struct LegReport {
  int schedules = 0;
  bool complete = false;
  std::uint64_t leaves_executed = 0;
  std::uint64_t hash_merges = 0;
  double execution_ratio = 0.0;  // schedules / leaves_executed
  std::vector<double> off_secs;
  std::vector<double> on_secs;
};

/// An exhaustive sweep at 1 job, checkpointing and hashing on.
explore::ExploreConfig sweep_config(int buckets, int bound) {
  explore::ExploreConfig ecfg;
  ecfg.mode = explore::ExploreMode::exhaustive;
  ecfg.think_buckets = buckets;
  ecfg.preemption_bound = bound;
  ecfg.max_schedules = 200000;
  ecfg.jobs = 1;
  return ecfg;
}

/// Runs the sweep with hashing off and on, alternating, `reps` times
/// each; every pair must agree on every result field.
LegReport run_leg(const core::ScenarioConfig& cfg, int buckets, int bound,
                  int reps) {
  explore::ExploreConfig ecfg = sweep_config(buckets, bound);

  LegReport r;
  for (int rep = 0; rep < reps; ++rep) {
    ecfg.state_hash = false;
    const auto t_off = Clock::now();
    const explore::ExploreResult off = explore::explore(cfg, ecfg);
    r.off_secs.push_back(seconds_since(t_off));

    ecfg.state_hash = true;
    const auto t_on = Clock::now();
    const explore::ExploreResult on = explore::explore(cfg, ecfg);
    r.on_secs.push_back(seconds_since(t_on));

    TOCTTOU_CHECK(same_result(off, on),
                  "state hashing must not change exploration results");
    r.schedules = on.schedules;
    r.complete = on.complete;
    r.leaves_executed = on.metrics.counter("explore.leaves_executed");
    r.hash_merges = on.metrics.counter("explore.hash_merges");
  }
  TOCTTOU_CHECK(r.leaves_executed > 0, "some leaves must execute");
  r.execution_ratio =
      static_cast<double>(r.schedules) / static_cast<double>(r.leaves_executed);
  return r;
}

struct ForkHashReport {
  std::uint64_t events = 0;
  int samples = 0;
  Spread fork_ms;
  Spread hash_ms;
};

/// Times one checkpoint fork (the RoundRun copy, not its destruction)
/// and one state digest at kSamples evenly spaced events of `cfg`.
ForkHashReport sample_fork_and_hash(const core::ScenarioConfig& cfg) {
  ForkHashReport r;
  r.events = core::RoundRun(cfg).finish().events;
  const std::uint64_t every = std::max<std::uint64_t>(1, r.events / kSamples);
  std::vector<double> fork_ms;
  std::vector<double> hash_ms;
  std::uint64_t sink = 0;
  core::RoundRun run(cfg);
  while (run.step()) {
    if (run.events_executed() % every != 0) continue;
    auto t0 = Clock::now();
    auto fork = std::make_unique<core::RoundRun>(run);
    fork_ms.push_back(seconds_since(t0) * 1e3);
    fork.reset();
    StateHasher h;
    t0 = Clock::now();
    run.hash_state(h);
    hash_ms.push_back(seconds_since(t0) * 1e3);
    sink ^= h.digest().lo;
  }
  TOCTTOU_CHECK(sink != 1, "digest sink");  // keeps the digests observed
  r.samples = static_cast<int>(fork_ms.size());
  r.fork_ms = spread_of(fork_ms);
  r.hash_ms = spread_of(hash_ms);
  return r;
}

struct ForkCopy {
  std::uint64_t event = 0;
  std::uint64_t bytes = 0;
  std::uint64_t allocations = 0;
};

/// What one checkpoint fork of `cfg`'s round at `event` allocates.
ForkCopy fork_copy_at(const core::ScenarioConfig& cfg, std::uint64_t event) {
  core::RoundRun run(cfg);
  while (run.events_executed() < event && run.step()) {
  }
  ForkCopy c;
  c.event = run.events_executed();
  const std::uint64_t n0 = g_allocations.load();
  const std::uint64_t b0 = g_allocated_bytes.load();
  auto fork = std::make_unique<core::RoundRun>(run);
  c.allocations = g_allocations.load() - n0;
  c.bytes = g_allocated_bytes.load() - b0;
  return c;
}

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Runs the timed sweep (hashing on) once in a child process that does
/// nothing else, and returns the child's peak RSS in MB.
double sweep_peak_rss_mb(const char* self) {
  const std::string cmd = std::string(self) + " --sweep-rss";
  FILE* p = popen(cmd.c_str(), "r");
  TOCTTOU_CHECK(p != nullptr, "cannot run " + cmd);
  double mb = 0.0;
  const int got = std::fscanf(p, "%lf", &mb);
  TOCTTOU_CHECK(pclose(p) == 0 && got == 1, cmd + " failed");
  return mb;
}

std::string spread_json(const Spread& s, const char* unit) {
  return strfmt("{\"median_%s\": %.4f, \"p25_%s\": %.4f, \"p75_%s\": %.4f}",
                unit, s.median, unit, s.p25, unit, s.p75);
}

std::string counts_json(const char* name, const LegReport& r) {
  return strfmt(
      "    \"%s\": {\"schedules\": %d, \"complete\": %s, "
      "\"leaves_executed\": %llu, \"hash_merges\": %llu, "
      "\"execution_ratio\": %.4f}",
      name, r.schedules, r.complete ? "true" : "false",
      static_cast<unsigned long long>(r.leaves_executed),
      static_cast<unsigned long long>(r.hash_merges), r.execution_ratio);
}

std::string fork_hash_json(const char* round, const ForkHashReport& r) {
  return strfmt(
      "    {\"round\": \"%s\", \"events\": %llu, \"samples\": %d,\n"
      "     \"fork\": %s,\n     \"hash\": %s}",
      round, static_cast<unsigned long long>(r.events), r.samples,
      spread_json(r.fork_ms, "ms").c_str(),
      spread_json(r.hash_ms, "ms").c_str());
}

std::string fork_copy_json(const char* round, const ForkCopy& c) {
  return strfmt(
      "    {\"round\": \"%s\", \"event\": %llu, \"bytes\": %llu, "
      "\"allocations\": %llu}",
      round, static_cast<unsigned long long>(c.event),
      static_cast<unsigned long long>(c.bytes),
      static_cast<unsigned long long>(c.allocations));
}

void print_counts(const char* label, const LegReport& r) {
  std::printf("%-22s %4d schedules   executed %llu (%.2fx fewer)   "
              "merges=%llu\n",
              label, r.schedules,
              static_cast<unsigned long long>(r.leaves_executed),
              r.execution_ratio,
              static_cast<unsigned long long>(r.hash_merges));
}

void print_fork_hash(const char* label, const ForkHashReport& r) {
  std::printf("%-22s %6llu events  fork median %.3f ms (p25 %.3f, p75 %.3f)"
              "   hash median %.3f ms (p25 %.3f, p75 %.3f)\n",
              label, static_cast<unsigned long long>(r.events),
              r.fork_ms.median, r.fork_ms.p25, r.fork_ms.p75,
              r.hash_ms.median, r.hash_ms.p25, r.hash_ms.p75);
}

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;

  if (argc > 1 && std::strcmp(argv[1], "--sweep-rss") == 0) {
    const explore::ExploreResult res =
        explore::explore(up_vi_100k(), sweep_config(64, 3));
    TOCTTOU_CHECK(res.schedules == 611, "the timed sweep has 611 schedules");
    std::printf("%.1f\n", peak_rss_mb());
    return 0;
  }
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const char* out_path =
      argc > 1 && !smoke ? argv[1] : "BENCH_explore_reduction.json";

  // Leg 1: the acceptance ratio. up/vi bound 5.
  const LegReport up = run_leg(up_vi(), /*buckets=*/2, /*bound=*/5, 1);
  print_counts("up/vi bound=5", up);
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
  const LegReport tp = run_leg(three, /*buckets=*/2, /*bound=*/3, 1);
  print_counts("3-proc bound=3", tp);
  TOCTTOU_CHECK(tp.complete,
                "three-process sweep must complete within the budget");
  TOCTTOU_CHECK(tp.hash_merges > 0,
                "the bystander's redundant interleavings must merge");

  if (smoke) {
    const ForkCopy copy = fork_copy_at(leaf_shape(up_vi_100k(), false), 6000);
    std::printf("up/vi 100KB fork at event %llu: %llu bytes in %llu "
                "allocations\n",
                static_cast<unsigned long long>(copy.event),
                static_cast<unsigned long long>(copy.bytes),
                static_cast<unsigned long long>(copy.allocations));
    std::printf("smoke: every check held; no JSON written\n");
    return 0;
  }

  // Leg 3: the timed sweep.
  const LegReport timed =
      run_leg(up_vi_100k(), /*buckets=*/64, /*bound=*/3, kTimedReps);
  print_counts("up/vi 100KB bound=3", timed);
  const Spread off = spread_of(timed.off_secs);
  const Spread on = spread_of(timed.on_secs);
  std::printf("  hashing off %.3fs (p25 %.3f, p75 %.3f)   on %.3fs (p25 %.3f, "
              "p75 %.3f)\n",
              off.median, off.p25, off.p75, on.median, on.p25, on.p75);
  const double rss_mb = sweep_peak_rss_mb(argv[0]);
  std::printf("  hashing on, alone in a process: peak RSS %.1f MB\n", rss_mb);

  // Leg 4: what one fork and one digest cost along a round.
  const ForkHashReport up_round =
      sample_fork_and_hash(leaf_shape(up_vi_100k(), false));
  print_fork_hash("up/vi 100KB round", up_round);
  const ForkHashReport up_journal =
      sample_fork_and_hash(leaf_shape(up_vi_100k(), true));
  print_fork_hash("  the same, journal on", up_journal);
  const ForkHashReport machine =
      sample_fork_and_hash(leaf_shape(smp_vi_machine(), false));
  print_fork_hash("smp/vi 256 tenants", machine);
  const ForkCopy copy = fork_copy_at(leaf_shape(up_vi_100k(), false), 6000);
  const ForkCopy copy_journal =
      fork_copy_at(leaf_shape(up_vi_100k(), true), 6000);
  std::printf("up/vi 100KB fork at event %llu: %llu bytes in %llu "
              "allocations (journal on: %llu bytes in %llu)\n",
              static_cast<unsigned long long>(copy.event),
              static_cast<unsigned long long>(copy.bytes),
              static_cast<unsigned long long>(copy.allocations),
              static_cast<unsigned long long>(copy_journal.bytes),
              static_cast<unsigned long long>(copy_journal.allocations));

  std::string json = "{\n";
  json += "  \"bench\": \"explore_reduction\",\n";
  json += strfmt("  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
  json += "  \"check_legs\": {\n";
  json += counts_json("up_vi_4k_b2_bound5", up) + ",\n";
  json += counts_json("three_process_4k_b2_bound3", tp) + "\n";
  json += "  },\n";
  json += "  \"timed_sweep\": {\n";
  json +=
      "    \"config\": \"up/vi 100KB, 64 buckets, bound 3, seed 1, 1 job, "
      "checkpoint on\",\n";
  json += strfmt("    \"reps\": %d,\n", kTimedReps);
  json += counts_json("counts", timed) + ",\n";
  json += "    \"hashing_off\": " + spread_json(off, "s") + ",\n";
  json += "    \"hashing_on\": " + spread_json(on, "s") + ",\n";
  json += strfmt("    \"hashing_on_peak_rss_mb\": %.1f\n", rss_mb);
  json += "  },\n";
  json += "  \"fork_and_hash\": [\n";
  json += fork_hash_json("up/vi 100KB, explore leaf (no journal)", up_round) +
          ",\n";
  json += fork_hash_json("up/vi 100KB, explore leaf with the journal on",
                         up_journal) +
          ",\n";
  json += fork_hash_json(
              "smp/vi 4KB, procs=256,inodes=25600, explore leaf (no journal)",
              machine) +
          "\n";
  json += "  ],\n";
  json += "  \"fork_copy\": [\n";
  json += fork_copy_json("up/vi 100KB, explore leaf (no journal)", copy) +
          ",\n";
  json += fork_copy_json("up/vi 100KB, explore leaf with the journal on",
                         copy_journal) +
          "\n";
  json += "  ],\n";
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
