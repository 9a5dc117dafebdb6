// Figure 11: the effect of parallelizing the attack program (Section 7).
// unlink is the most expensive attack step (it physically truncates the
// file), but symlink only needs the name detached, which happens early —
// so a second thread can issue the symlink asynchronously and finish it
// well before the unlink returns. For each file size we report the end
// times of the attack steps, sequential vs parallel, measured from the
// detecting stat.
#include "bench_common.h"

#include "tocttou/fs/vfs.h"
#include "tocttou/programs/attackers.h"
#include "tocttou/programs/testbeds.h"
#include "tocttou/sched/linux_sched.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::bench {
namespace {

struct StepTimes {
  double stat_end_us = 0;
  double unlink_end_us = 0;
  double symlink_end_us = 0;
  double attack_done_us = 0;  // max(unlink, symlink): name redirected
};

/// Stages a root-owned watched file of `bytes` and times one attack.
StepTimes run_one(bool parallel, std::uint64_t bytes, std::uint64_t seed) {
  const auto profile = programs::testbed_smp_dual_xeon();
  fs::Vfs vfs(profile.costs);
  vfs.mkdir_p("/etc", 0, 0, 0755);
  vfs.create_file("/etc/passwd", 0, 0, 0644, 1536);
  vfs.mkdir_p("/home/alice", 500, 500, 0755);
  vfs.create_file("/home/alice/f.txt", 0, 0, 0644, bytes);  // window open

  trace::RoundTrace trace;
  sim::MachineSpec m = profile.machine;
  m.background.enabled = false;  // isolate the attack-step timing
  sim::Kernel kernel(m, std::make_unique<sched::LinuxLikeScheduler>(), seed,
                     &trace);
  kernel.set_vfs(&vfs);
  programs::AttackTarget target{"/home/alice/f.txt", "/etc/passwd",
                                "/tmp/dummy"};
  sim::SpawnOptions opts;
  opts.name = "attacker";
  opts.uid = 500;
  opts.gid = 500;
  const auto& t = profile.timings;

  sim::Pid main_pid = 0, sym_pid = 0;
  if (parallel) {
    const sim::FlagId found = kernel.add_flag("window_found");
    main_pid = kernel.spawn(std::make_unique<programs::PipelinedAttackerMain>(
                                target, t.atk_loop_comp_gedit,
                                t.atk_thread_handoff, found),
                            opts);
    sim::SpawnOptions h = opts;
    h.name = "attacker/symlink";
    sym_pid = kernel.spawn(
        std::make_unique<programs::PipelinedAttackerSymlinker>(
            target, t.atk_thread_handoff, found),
        h);
  } else {
    main_pid = kernel.spawn(
        std::make_unique<programs::NaiveAttacker>(
            target, t.atk_loop_comp_gedit, t.atk_post_detect_comp),
        opts);
    sym_pid = main_pid;
  }
  kernel.run_to_exit(SimTime::origin() + Duration::seconds(1));

  StepTimes out;
  const auto stats = trace.journal.for_pid(main_pid, "stat");
  const auto unlinks = trace.journal.for_pid(main_pid, "unlink");
  const auto symlinks = trace.journal.for_pid(sym_pid, "symlink");
  if (stats.empty() || unlinks.empty() || symlinks.empty()) return out;
  const SimTime t0 = stats.front()->enter;
  out.stat_end_us = (stats.front()->exit - t0).us();
  out.unlink_end_us = (unlinks.back()->exit - t0).us();
  out.symlink_end_us = (symlinks.back()->exit - t0).us();
  out.attack_done_us = std::max(out.unlink_end_us, out.symlink_end_us);
  return out;
}

void BM_Fig11(benchmark::State& state) {
  const auto kb = static_cast<std::uint64_t>(state.range(0));
  const int rounds = rounds_or(20);
  RunningStats seq_sym, seq_done, par_sym, par_done, unlink_end;
  for (auto _ : state) {
    for (int i = 0; i < rounds; ++i) {
      const auto seq =
          run_one(false, kb * 1024, mix_seed(1100 + kb, std::uint64_t(i)));
      const auto par =
          run_one(true, kb * 1024, mix_seed(2200 + kb, std::uint64_t(i)));
      seq_sym.add(seq.symlink_end_us);
      seq_done.add(seq.attack_done_us);
      par_sym.add(par.symlink_end_us);
      par_done.add(par.attack_done_us);
      unlink_end.add(par.unlink_end_us);
    }
  }
  state.counters["seq_symlink_end_us"] = seq_sym.mean();
  state.counters["par_symlink_end_us"] = par_sym.mean();
  RowSink::get().add_row(
      {std::to_string(kb), TextTable::fmt(unlink_end.mean(), 0),
       TextTable::fmt(seq_sym.mean(), 0), TextTable::fmt(par_sym.mean(), 0),
       TextTable::fmt(seq_sym.mean() - par_sym.mean(), 0)});
}

BENCHMARK(BM_Fig11)
    ->Arg(20)
    ->Arg(100)
    ->Arg(500)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

const bool kInit = [] {
  RowSink::get().set_table({"file size (KB)", "unlink end (us)",
                            "symlink end, sequential (us)",
                            "symlink end, parallel (us)",
                            "speedup (us)"});
  return true;
}();

}  // namespace
}  // namespace tocttou::bench

TOCTTOU_BENCH_MAIN(
    "Figure 11 - the effect of parallelizing the attack program",
    "in the parallel attack the symlink finishes well before the end of "
    "unlink (whose truncate grows with file size); sequentially it must "
    "wait for the whole unlink")
