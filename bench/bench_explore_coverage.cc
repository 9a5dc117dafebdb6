// Explorer throughput and coverage: schedules/sec for exhaustive DFS
// and PCT, plus schedules-to-first-hit — how many interleavings each
// strategy burns before it first witnesses the attack. Not a paper
// table; this tracks the cost of the exploration subsystem itself.
#include <chrono>

#include "bench_common.h"
#include "tocttou/common/strings.h"
#include "tocttou/explore/explorer.h"

namespace tocttou::bench {
namespace {

core::ScenarioConfig gedit_smp() {
  return scenario(programs::testbed_smp_dual_xeon(), core::VictimKind::gedit,
                  core::AttackerKind::naive, /*file_bytes=*/4096, /*seed=*/7);
}

void report(const std::string& label, const explore::ExploreResult& res,
            double seconds) {
  const double per_sec =
      seconds > 0 ? static_cast<double>(res.rounds_executed) / seconds : 0.0;
  RowSink::get().add_row(
      {label, std::to_string(res.schedules),
       std::to_string(res.rounds_executed), strfmt("%.0f", per_sec),
       res.schedules_to_first_hit >= 0
           ? std::to_string(res.schedules_to_first_hit)
           : "-",
       res.complete ? "yes" : "no"});
}

void BM_Exhaustive(benchmark::State& state) {
  explore::ExploreConfig ecfg;
  ecfg.mode = explore::ExploreMode::exhaustive;
  ecfg.think_buckets = static_cast<int>(state.range(0));
  ecfg.preemption_bound = static_cast<int>(state.range(1));
  explore::ExploreResult res;
  double secs = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    res = explore::explore(gedit_smp(), ecfg);
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
  }
  state.counters["schedules"] = res.schedules;
  state.counters["rounds"] = res.rounds_executed;
  report(strfmt("exhaustive b=%d c=%d", ecfg.think_buckets,
                ecfg.preemption_bound),
         res, secs);
}

void BM_Pct(benchmark::State& state) {
  explore::ExploreConfig ecfg;
  ecfg.mode = explore::ExploreMode::pct;
  ecfg.pct_schedules = static_cast<int>(state.range(0));
  ecfg.pct_seed = 11;
  explore::ExploreResult res;
  double secs = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    res = explore::explore(gedit_smp(), ecfg);
    secs += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
  }
  state.counters["schedules"] = res.schedules;
  state.counters["hit_bound"] = res.pct_bound;
  report(strfmt("pct n=%d", ecfg.pct_schedules), res, secs);
}

BENCHMARK(BM_Exhaustive)
    ->Args({8, 1})
    ->Args({16, 2})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Pct)->Arg(50)->Iterations(1)->Unit(benchmark::kMillisecond);

const bool kInit = [] {
  RowSink::get().set_table({"strategy", "schedules", "rounds", "rounds/s",
                            "to-first-hit", "complete"});
  return true;
}();

}  // namespace
}  // namespace tocttou::bench

TOCTTOU_BENCH_MAIN(
    "Explorer coverage - schedules/sec and schedules-to-first-hit",
    "")
