// Figure 10: event analysis of a SUCCESSFUL gedit attack (program v2,
// Figure 9) on the multi-core. Pre-faulting unlink/symlink every
// iteration removes the in-window trap, shrinking the attacker's
// stat->unlink gap to ~2us. The winning stat starts well inside the
// rename and is lengthened (blocked on the directory being renamed), so
// the attacker detects the window "at the first moment".
#include "bench_common.h"

#include "tocttou/trace/trace.h"

namespace tocttou::bench {
namespace {

core::RoundResult representative_success() {
  for (std::uint64_t seed = 1; seed < 256; ++seed) {
    auto cfg = scenario(programs::testbed_multicore_pentium_d(),
                        core::VictimKind::gedit,
                        core::AttackerKind::prefaulted, 16 * 1024, seed);
    cfg.record_journal = true;
    cfg.record_events = true;
    auto r = core::run_round(cfg);
    if (r.success && r.window && r.window->detected) return r;
  }
  return {};
}

void BM_Fig10(benchmark::State& state) {
  const int rounds = rounds_or(300);
  core::CampaignStats stats;
  core::RoundResult rep;
  for (auto _ : state) {
    stats = core::run_campaign(
        scenario(programs::testbed_multicore_pentium_d(),
                 core::VictimKind::gedit, core::AttackerKind::prefaulted,
                 16 * 1024, /*seed=*/1010),
        rounds, /*measure_ld=*/true, campaign_jobs());
    rep = representative_success();
  }
  state.counters["success_rate"] = stats.success.rate();

  RowSink::get().add_row({"success rate", TextTable::pct(stats.success.rate()),
                          "\"many successes\" (v1 saw ~none)"});
  RowSink::get().add_row(
      {"D (stat start -> unlink start)",
       TextTable::fmt(stats.detection_us.mean(), 1) + "us",
       "small (no trap; ~2us gap after stat)"});

  if (rep.window) {
    const auto& j = rep.trace.journal;
    // The detecting stat of the winning round: lengthened by blocking on
    // the directory semaphore during the rename (typical stat ~4us).
    const trace::SyscallRecord* detect = nullptr;
    for (const auto* s : j.for_pid(rep.attacker_pid, "stat")) {
      if (s->st_uid && *s->st_uid == 0) {
        detect = s;
        break;
      }
    }
    if (detect != nullptr) {
      RowSink::get().add_row(
          {"winning stat duration",
           TextTable::fmt(detect->length().us(), 1) + "us",
           "26us (typical 4us) - lengthened by the rename"});
      const trace::SyscallRecord* unlink = nullptr;
      for (const auto* u : j.for_pid(rep.attacker_pid, "unlink")) {
        if (u->enter >= detect->exit &&
            j.path(*u) != "/tmp/dummy") {
          unlink = u;
          break;
        }
      }
      if (unlink != nullptr) {
        RowSink::get().add_row(
            {"attacker gap stat end -> unlink",
             TextTable::fmt((unlink->enter - detect->exit).us(), 1) + "us",
             "2us (trap removed)"});
      }
    }
    std::printf("\n--- Figure 10 style timeline (successful v2 attack) ---\n");
    trace::GanttOptions opts;
    opts.width = 110;
    opts.from = rep.window->window_open - Duration::micros(40);
    opts.to = rep.window->t3 + Duration::micros(60);
    std::printf("%s", trace::render_gantt(rep.trace.log, opts).c_str());
  }
}

BENCHMARK(BM_Fig10)->Iterations(1)->Unit(benchmark::kMillisecond);

const bool kInit = [] {
  RowSink::get().set_table({"quantity", "measured", "paper"});
  return true;
}();

}  // namespace
}  // namespace tocttou::bench

TOCTTOU_BENCH_MAIN(
    "Figure 10 - successful gedit attack (program v2) on the multi-core",
    "the pre-faulted attacker's stat blocks inside the rename (lengthened "
    "to ~26us), detection is instantaneous at the commit, and the 2us "
    "post-stat gap beats gedit's 3us comp gap")
