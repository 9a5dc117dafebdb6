// Profiles the simulator itself (not the paper's attack): rounds/sec on
// representative campaign workloads, per-subsystem wall time from
// ScenarioConfig::wall_profile, and raw event-queue throughput. Writes
// the BENCH_core_hotpath.json artifact:
//
//   ./bench_core_hotpath [output.json]
//
// Defaults to BENCH_core_hotpath.json in the working directory; round
// counts scale with TOCTTOU_ROUNDS (default 200 per workload). The
// figures from before the event-queue hot-path work are recorded in
// DESIGN.md §7.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "tocttou/common/strings.h"
#include "tocttou/core/harness.h"
#include "tocttou/metrics/profile.h"
#include "tocttou/sim/event_queue.h"

namespace tocttou {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int rounds_or(int dflt) {
  if (const char* env = std::getenv("TOCTTOU_ROUNDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return dflt;
}

struct Workload {
  const char* name;
  core::ScenarioConfig cfg;
  int rounds;
  bool measure_ld;
};

struct WorkloadReport {
  std::string name;
  int rounds = 0;
  double rps = 0.0;
};

/// One timed serial campaign; returns rounds/sec.
double timed_campaign(const Workload& w) {
  const auto t0 = Clock::now();
  core::run_campaign(w.cfg, w.rounds, w.measure_ld, /*jobs=*/1);
  return static_cast<double>(w.rounds) / seconds_since(t0);
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    // The bench_model_sweep shape: SMP vi with the journal on (L/D
    // measurement) at the sweep's 4KB point.
    Workload w;
    w.name = "smp_vi_measure_ld";
    w.cfg.profile = programs::testbed_smp_dual_xeon();
    w.cfg.victim = core::VictimKind::vi;
    w.cfg.file_bytes = 4096;
    w.cfg.seed = 42;
    w.rounds = rounds_or(200) * 4;  // fast rounds; larger count steadies it
    w.measure_ld = true;
    out.push_back(w);
  }
  {
    // Uniprocessor vi: long rounds dominated by kernel event dispatch.
    Workload w;
    w.name = "up_vi";
    w.cfg.profile = programs::testbed_uniprocessor_xeon();
    w.cfg.victim = core::VictimKind::vi;
    w.cfg.seed = 42;
    w.rounds = rounds_or(200);
    w.measure_ld = false;
    out.push_back(w);
  }
  {
    // Multicore gedit: deepest scheduler involvement (4 CPUs + steals).
    Workload w;
    w.name = "multicore_gedit";
    w.cfg.profile = programs::testbed_multicore_pentium_d();
    w.cfg.victim = core::VictimKind::gedit;
    w.cfg.seed = 42;
    w.rounds = rounds_or(200);
    w.measure_ld = false;
    out.push_back(w);
  }
  return out;
}

/// Raw queue throughput: push/pop churn with a live heap, mimicking the
/// kernel's schedule-then-fire pattern.
double queue_ops_per_sec() {
  constexpr int kEvents = 2'000'000;
  sim::EventQueue q;
  long long fired = 0;
  struct Tick {
    sim::EventQueue* q;
    long long* fired;
    int left;
    void operator()() const {
      ++*fired;
      if (left > 0) {
        // Two children per event keep ~32 events pending, like a busy
        // round; times interleave so pops hit the sift-down path.
        q->schedule_after(Duration::nanos(37), Tick{q, fired, left - 2});
        q->schedule_after(Duration::nanos(91), Tick{q, fired, left - 2});
      }
    }
  };
  const auto t0 = Clock::now();
  while (fired < kEvents) {
    if (q.empty()) {
      q.schedule_after(Duration::nanos(13), Tick{&q, &fired, 10});
    }
    q.run_next();
  }
  return static_cast<double>(fired) / seconds_since(t0);
}

}  // namespace
}  // namespace tocttou

int main(int argc, char** argv) {
  using namespace tocttou;

  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_core_hotpath.json";
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());

  std::vector<WorkloadReport> reports;
  metrics::WallProfile wall;
  for (const Workload& w : workloads()) {
    WorkloadReport r;
    r.name = w.name;
    r.rounds = w.rounds;
    // Warm-up pass (allocator + page cache), then the timed pass.
    timed_campaign({w.name, w.cfg, std::max(8, w.rounds / 8), w.measure_ld});
    r.rps = timed_campaign(w);
    // Per-subsystem wall time, accumulated across workloads.
    Workload prof = w;
    prof.rounds = std::max(8, w.rounds / 8);
    prof.cfg.wall_profile = &wall;
    timed_campaign(prof);
    std::printf("%-20s %6d rounds   %9.1f r/s\n", r.name.c_str(), r.rounds,
                r.rps);
    reports.push_back(r);
  }

  const double q_ops = queue_ops_per_sec();
  std::printf("event_queue raw       %.2fM ev/s\n", q_ops / 1e6);

  std::string json = "{\n";
  json += "  \"bench\": \"core_hotpath\",\n";
  json += strfmt("  \"hardware_threads\": %u,\n", hw_threads);
  json += "  \"workloads\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const WorkloadReport& r = reports[i];
    json += strfmt(
        "    {\"name\": \"%s\", \"rounds\": %d, "
        "\"rounds_per_sec\": %.2f}%s\n",
        r.name.c_str(), r.rounds, r.rps, i + 1 < reports.size() ? "," : "");
  }
  json += "  ],\n";
  json += strfmt("  \"event_queue_ops_per_sec\": %.0f,\n", q_ops);
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
