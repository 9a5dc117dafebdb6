// Profiles the simulator itself (not the paper's attack): rounds/sec on
// representative campaign workloads, per-subsystem wall time from
// ScenarioConfig::wall_profile, and raw event-queue throughput. Writes
// the BENCH_core_hotpath.json artifact:
//
//   ./bench_core_hotpath [output.json]
//
// A campaign pass of a few hundred rounds lasts tens of milliseconds,
// so one timing measures the host as much as the code. Each timed unit
// (the three campaigns and the raw queue loop) instead sizes its pass to
// about a second from a warm-up, then runs kPasses passes, the units
// interleaved pass by pass, and reports the median and quartiles of its
// rate. TOCTTOU_ROUNDS=<n> fixes the rounds per campaign pass instead of
// sizing it. The figures from before the event-queue hot-path work are
// recorded in DESIGN.md §7.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_timing.h"
#include "tocttou/common/stats.h"
#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/metrics/profile.h"
#include "tocttou/sim/event_queue.h"

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kPasses = 5;
constexpr double kPassSeconds = 1.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int fixed_rounds() {
  if (const char* env = std::getenv("TOCTTOU_ROUNDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 0;
}

struct Workload {
  const char* name;
  core::ScenarioConfig cfg;
  bool measure_ld;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    // The bench_model_sweep shape: SMP vi with the journal on (L/D
    // measurement) at the sweep's 4KB point.
    Workload w{"smp_vi_measure_ld", {}, true};
    w.cfg.profile = programs::testbed_smp_dual_xeon();
    w.cfg.victim = core::VictimKind::vi;
    w.cfg.file_bytes = 4096;
    w.cfg.seed = 42;
    out.push_back(w);
  }
  {
    // Uniprocessor vi: long rounds dominated by kernel event dispatch.
    Workload w{"up_vi", {}, false};
    w.cfg.profile = programs::testbed_uniprocessor_xeon();
    w.cfg.victim = core::VictimKind::vi;
    w.cfg.seed = 42;
    out.push_back(w);
  }
  {
    // Multicore gedit: deepest scheduler involvement (4 CPUs + steals).
    Workload w{"multicore_gedit", {}, false};
    w.cfg.profile = programs::testbed_multicore_pentium_d();
    w.cfg.victim = core::VictimKind::gedit;
    w.cfg.seed = 42;
    out.push_back(w);
  }
  return out;
}

/// Raw queue churn: fires `events` typed events with a live heap,
/// mimicking the kernel's schedule-then-fire pattern.
void queue_churn(long long events) {
  sim::EventQueue q;
  long long fired = 0;
  sim::Event ev{};
  while (fired < events) {
    if (q.empty()) {
      q.schedule_at(q.now() + Duration::nanos(13),
                    {sim::EventKind::segment_end, 1, 10});
    }
    q.pop(&ev);
    ++fired;
    if (ev.arg > 0) {
      // Two children per event keep ~32 events pending, like a busy
      // round; times interleave so pops hit the sift-down path.
      q.schedule_at(q.now() + Duration::nanos(37),
                    {ev.kind, ev.pid, ev.arg - 2});
      q.schedule_at(q.now() + Duration::nanos(91),
                    {ev.kind, ev.pid, ev.arg - 2});
    }
  }
}

/// One timed unit: `run(n)` does n rounds or events.
struct Unit {
  std::string name;
  std::function<void(long long)> run;
  long long per_pass = 0;
  Samples rate;  // units per second, one sample per pass
};

using bench::quartiles;

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;

  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_core_hotpath.json";
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  const std::vector<Workload> campaigns = workloads();
  std::vector<Unit> units;
  for (const Workload& w : campaigns) {
    Unit u{w.name,
           [&w](long long rounds) {
             core::run_campaign(w.cfg, static_cast<int>(rounds),
                                w.measure_ld, /*jobs=*/1);
           },
           fixed_rounds(), {}};
    if (u.per_pass == 0) {
      u.per_pass = bench::size_pass(u.run, 8, kPassSeconds);
    }
    units.push_back(std::move(u));
  }
  Unit queue{"event_queue", queue_churn, 0, {}};
  queue.per_pass = bench::size_pass(queue.run, 1 << 16, kPassSeconds);
  units.push_back(std::move(queue));

  for (int pass = 0; pass < kPasses; ++pass) {
    for (Unit& u : units) {
      const auto t0 = Clock::now();
      u.run(u.per_pass);
      u.rate.add(static_cast<double>(u.per_pass) / seconds_since(t0));
    }
  }
  for (const Unit& u : units) {
    std::printf("%-20s %9lld per pass   %12.1f /s (median; p25 %.1f, "
                "p75 %.1f)\n",
                u.name.c_str(), u.per_pass, u.rate.median(),
                u.rate.quantile(0.25), u.rate.quantile(0.75));
  }

  // Per-subsystem wall time, accumulated across the campaigns, each run
  // for an eighth of its pass.
  metrics::WallProfile wall;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    core::ScenarioConfig prof = campaigns[i].cfg;
    prof.wall_profile = &wall;
    core::run_campaign(
        prof, static_cast<int>(std::max(8LL, units[i].per_pass / 8)),
        campaigns[i].measure_ld, /*jobs=*/1);
  }

  std::string json = "{\n";
  json += "  \"bench\": \"core_hotpath\",\n";
  json += strfmt("  \"hardware_threads\": %u,\n", hw_threads);
  json += strfmt("  \"passes\": %d,\n", kPasses);
  json += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    json += strfmt(
        "    {\"name\": \"%s\", \"rounds_per_pass\": %lld, "
        "\"rounds_per_sec\": %s}%s\n",
        units[i].name.c_str(), units[i].per_pass,
        quartiles(units[i].rate, 1).c_str(),
        i + 1 < campaigns.size() ? "," : "");
  }
  json += "  ],\n";
  json += strfmt(
      "  \"event_queue\": {\"events_per_pass\": %lld, \"ops_per_sec\": %s},\n",
      units.back().per_pass, quartiles(units.back().rate, 0).c_str());
  const double total = static_cast<double>(wall.total_ns);
  json += strfmt(
      "  \"subsystem_wall\": {\"rounds\": %llu, \"setup_ns\": %llu, "
      "\"sim_ns\": %llu, \"analyze_ns\": %llu, \"audit_ns\": %llu, "
      "\"total_ns\": %llu, \"sim_share\": %.3f}\n",
      static_cast<unsigned long long>(wall.rounds),
      static_cast<unsigned long long>(wall.setup_ns),
      static_cast<unsigned long long>(wall.sim_ns),
      static_cast<unsigned long long>(wall.analyze_ns),
      static_cast<unsigned long long>(wall.audit_ns),
      static_cast<unsigned long long>(wall.total_ns),
      total > 0 ? static_cast<double>(wall.sim_ns) / total : 0.0);
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
