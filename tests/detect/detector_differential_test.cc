// analyze_round() against the string-based detector it replaced, written
// out here as the reference: grow-on-demand vector clocks copied per call
// and per release, a window finder keyed by name text, and every window
// tested against every attacker-writable mutation. Both must give equal
// reports — counters, pair maps, summary() and to_csv() — on seeded
// synthetic rounds (random semaphore and flag edges, names with shared
// prefixes, rename/link path2, symlink targets, st_ino/applied_ino
// aliasing, failed calls, same-instant calls, in-flight calls, several
// mutating processes whose findings interleave within one window) and on
// the real rounds of eight scenarios. The real rounds also check
// core::find_pairs and core::find_interference against the reference
// window finder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "tocttou/common/rng.h"
#include "tocttou/core/harness.h"
#include "tocttou/core/pairs.h"
#include "tocttou/detect/classify.h"
#include "tocttou/detect/detector.h"
#include "tocttou/programs/testbeds.h"

namespace tocttou::detect {
namespace {

using namespace tocttou::literals;

// One journal record as text: all the reference reads.
struct Call {
  trace::Pid pid = 0;
  std::string name;
  SimTime enter;
  SimTime exit;
  Errno result = Errno::ok;
  std::string path;
  std::string path2;
  std::optional<std::uint32_t> st_uid;
  std::optional<std::uint32_t> st_gid;
  std::optional<std::uint64_t> st_ino;
  std::optional<std::uint64_t> applied_ino;
};

// The journal's record API: the only two functions here that touch it.
std::vector<Call> calls_of(const trace::SyscallJournal& j) {
  std::vector<Call> out;
  for (const trace::SyscallRecord& r : j.records()) {
    out.push_back({r.pid, std::string(j.name(r)), r.enter, r.exit, r.result,
                   std::string(j.path(r)), std::string(j.path2(r)), r.st_uid,
                   r.st_gid, r.st_ino, r.applied_ino});
  }
  return out;
}

void append(trace::SyscallJournal* j, const Call& c) {
  trace::SyscallRecord& r =
      j->append(c.pid, c.name, c.enter, c.exit, c.result, c.path, c.path2);
  r.st_uid = c.st_uid;
  r.st_gid = c.st_gid;
  r.st_ino = c.st_ino;
  r.applied_ino = c.applied_ino;
}

// ---------------------------------------------------------------------
// The reference.

class RefClock {
 public:
  std::uint32_t at(std::size_t i) const { return i < c_.size() ? c_[i] : 0; }
  std::uint32_t tick(std::size_t i) {
    if (c_.size() <= i) c_.resize(i + 1, 0);
    return ++c_[i];
  }
  void join(const RefClock& o) {
    if (c_.size() < o.c_.size()) c_.resize(o.c_.size(), 0);
    for (std::size_t i = 0; i < o.c_.size(); ++i) {
      c_[i] = std::max(c_[i], o.c_[i]);
    }
  }

 private:
  std::vector<std::uint32_t> c_;
};

struct RefCallClock {
  RefClock enter_vc;
  std::uint32_t enter_k = 0;
  std::uint32_t exit_k = 0;
};

struct RefReplay {
  std::vector<RefClock> vc;
  std::vector<std::uint32_t> uid;
  std::vector<RefCallClock> calls;
};

std::size_t pidx(trace::Pid p) { return static_cast<std::size_t>(p) - 1; }

RefReplay ref_replay(const SyncLog& sync, const std::vector<Call>& recs) {
  RefReplay st;
  st.calls.resize(recs.size());
  std::unordered_map<std::uint64_t, RefClock> sem_released;
  std::vector<RefClock> flag_published(sync.flags().size());
  std::vector<RefCallClock> open;
  std::vector<char> in_call;
  for (const SyncEvent& e : sync.events()) {
    const std::size_t i = pidx(e.pid);
    if (st.vc.size() <= i) {
      st.vc.resize(i + 1);
      st.uid.resize(i + 1, 0);
      open.resize(i + 1);
      in_call.resize(i + 1, 0);
    }
    RefClock& v = st.vc[i];
    switch (e.kind) {
      case SyncKind::proc_start:
        st.uid[i] = static_cast<std::uint32_t>(e.arg);
        v.tick(i);
        break;
      case SyncKind::proc_exit:
        v.tick(i);
        break;
      case SyncKind::sem_acquire: {
        const auto it = sem_released.find(e.arg);
        if (it != sem_released.end()) v.join(it->second);
        v.tick(i);
        break;
      }
      case SyncKind::sem_release:
        v.tick(i);
        sem_released[e.arg] = v;
        break;
      case SyncKind::flag_set:
        v.tick(i);
        flag_published[e.arg] = v;
        break;
      case SyncKind::flag_wake:
        v.join(flag_published[e.arg]);
        v.tick(i);
        break;
      case SyncKind::sc_enter:
        in_call[i] = 1;
        open[i].enter_k = v.tick(i);
        open[i].enter_vc = v;
        break;
      case SyncKind::sc_exit:
        in_call[i] = 0;
        st.calls[e.arg] = open[i];
        st.calls[e.arg].exit_k = v.tick(i);
        break;
    }
  }
  return st;
}

std::vector<std::string> ref_acted(const Call& r) {
  std::vector<std::string> out;
  if (!r.path.empty()) out.push_back(r.path);
  if ((r.name == "rename" || r.name == "link") && !r.path2.empty()) {
    out.push_back(r.path2);
  }
  return out;
}

std::vector<std::string> ref_established(const Call& r) {
  std::vector<std::string> out;
  if (r.name == "rename") {
    if (!r.path2.empty()) out.push_back(r.path2);
  } else if (r.name == "link") {
    if (!r.path.empty()) out.push_back(r.path);
    if (!r.path2.empty()) out.push_back(r.path2);
  } else if (!r.path.empty()) {
    out.push_back(r.path);
  }
  return out;
}

std::vector<std::string> ref_mutated(const Call& r) {
  std::vector<std::string> out;
  if (r.name == "rename") {
    if (!r.path.empty()) out.push_back(r.path);
    if (!r.path2.empty()) out.push_back(r.path2);
  } else if (r.name == "link") {
    if (!r.path2.empty()) out.push_back(r.path2);
  } else if (!r.path.empty()) {
    out.push_back(r.path);
  }
  return out;
}

struct RefWindow {
  std::size_t check = 0;
  std::size_t use = 0;
  std::string name;
};

std::vector<RefWindow> ref_windows(const std::vector<Call>& recs,
                                   const std::vector<std::size_t>& order) {
  std::vector<RefWindow> out;
  std::map<std::string, std::size_t> last_check;
  for (const std::size_t r : order) {
    const Call& rec = recs[r];
    if (is_use_name(rec.name)) {
      for (const std::string& n : ref_acted(rec)) {
        const auto it = last_check.find(n);
        if (it != last_check.end() && rec.enter > recs[it->second].exit) {
          out.push_back({it->second, r, n});
        }
      }
    }
    if (rec.result == Errno::ok) {
      if (rec.name == "rename" || rec.name == "unlink") {
        last_check.erase(rec.path);
      }
      if (is_check_name(rec.name)) {
        for (const std::string& n : ref_established(rec)) {
          last_check[n] = r;
        }
      }
    }
  }
  return out;
}

DetectReport ref_analyze(const SyncLog& sync, const std::vector<Call>& recs) {
  DetectReport rep;
  rep.rounds = 1;
  rep.sync_events = sync.events().size();
  const RefReplay st = ref_replay(sync, recs);

  std::vector<std::vector<std::size_t>> by_pid(st.vc.size());
  for (std::size_t r = 0; r < recs.size(); ++r) {
    by_pid[pidx(recs[r].pid)].push_back(r);
  }
  std::vector<std::size_t> mutations;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    if (is_mutator_name(recs[r].name) && recs[r].result == Errno::ok &&
        st.uid[pidx(recs[r].pid)] != 0) {
      mutations.push_back(r);
    }
  }
  rep.mutations = mutations.size();

  for (std::size_t vi = 0; vi < by_pid.size(); ++vi) {
    for (const RefWindow& w : ref_windows(recs, by_pid[vi])) {
      const Call& crec = recs[w.check];
      const Call& urec = recs[w.use];
      const RefCallClock& check = st.calls[w.check];
      const RefCallClock& use = st.calls[w.use];
      const std::string pair = crec.name + "," + urec.name;
      ++rep.windows;
      ++rep.pair_windows[pair];
      const std::optional<std::uint64_t> checked_ino =
          crec.st_ino ? crec.st_ino : crec.applied_ino;
      bool raced = false;
      for (const std::size_t m : mutations) {
        const Call& mrec = recs[m];
        const std::size_t qi = pidx(mrec.pid);
        if (qi == vi) continue;
        bool hits = false;
        for (const std::string& n : ref_mutated(mrec)) {
          hits = hits || n == w.name;
        }
        if (!hits && checked_ino && mrec.applied_ino &&
            *mrec.applied_ino == *checked_ino) {
          hits = true;
        }
        if (!hits) continue;
        const RefCallClock& mut = st.calls[m];
        if (check.enter_vc.at(qi) >= mut.exit_k) {
          ++rep.ordered_mutations["mutation-before-check"];
          continue;
        }
        if (mut.enter_vc.at(vi) >= use.exit_k) {
          ++rep.ordered_mutations["use-before-mutation"];
          continue;
        }
        raced = true;
        ++rep.races;
        ++rep.pair_races[pair];
        RaceFinding f;
        f.victim = crec.pid;
        f.check_call = crec.name;
        f.use_call = urec.name;
        f.path = w.name;
        f.check_exit = crec.exit;
        f.use_enter = urec.enter;
        f.mutator = mrec.pid;
        f.mutator_uid = st.uid[qi];
        f.mutator_call = mrec.name;
        f.mutation_enter = mrec.enter;
        f.ordered_after_check = mut.enter_vc.at(vi) >= check.exit_k;
        f.ordered_before_use = use.enter_vc.at(qi) >= mut.exit_k;
        rep.findings.push_back(std::move(f));
      }
      if (raced) rep.rounds_with_race = 1;
    }
  }
  return rep;
}

// The post-mortem scanner (core/pairs) over the reference window finder.
std::vector<std::string> ref_pairs(const std::vector<Call>& recs,
                                   trace::Pid pid) {
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    if (recs[r].pid == pid) order.push_back(r);
  }
  std::vector<std::string> out;
  for (const RefWindow& w : ref_windows(recs, order)) {
    out.push_back(recs[w.check].name + "," + recs[w.use].name + "," +
                  w.name + "," + std::to_string(recs[w.check].exit.ns()) +
                  "," + std::to_string(recs[w.use].enter.ns()));
  }
  return out;
}

std::vector<std::string> ref_interference(const std::vector<Call>& recs,
                                          trace::Pid victim) {
  std::vector<std::size_t> order;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    if (recs[r].pid == victim) order.push_back(r);
  }
  const std::vector<RefWindow> windows = ref_windows(recs, order);
  std::vector<std::pair<SimTime, std::string>> hits;
  for (const Call& r : recs) {
    if (r.pid == victim || r.result != Errno::ok) continue;
    if (!(r.name == "unlink" || r.name == "symlink" || r.name == "rename" ||
          r.name == "link" || r.name == "mkdir")) {
      continue;
    }
    const std::vector<std::string> names = ref_mutated(r);
    for (const RefWindow& w : windows) {
      if (std::find(names.begin(), names.end(), w.name) == names.end()) {
        continue;
      }
      const SimTime open = recs[w.check].exit;
      const SimTime use = recs[w.use].enter;
      if (r.enter >= open && r.enter < use) {
        hits.emplace_back(r.enter, w.name + "," +
                                       std::to_string(open.ns()) + "," +
                                       std::to_string(r.pid) + "," + r.name);
      }
    }
  }
  std::stable_sort(hits.begin(), hits.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::string> out;
  for (auto& h : hits) out.push_back(std::move(h.second));
  return out;
}

std::vector<std::string> pairs_text(const trace::SyscallJournal& j,
                                    trace::Pid pid) {
  std::vector<std::string> out;
  for (const core::DetectedPair& p : core::find_pairs(j, pid)) {
    out.push_back(p.check_call + "," + p.use_call + "," + p.path + "," +
                  std::to_string(p.check_exit.ns()) + "," +
                  std::to_string(p.use_enter.ns()));
  }
  return out;
}

std::vector<std::string> interference_text(const trace::SyscallJournal& j,
                                           trace::Pid victim) {
  std::vector<std::string> out;
  for (const core::Interference& i : core::find_interference(j, victim)) {
    out.push_back(i.window.path + "," +
                  std::to_string(i.window.check_exit.ns()) + "," +
                  std::to_string(i.intruder) + "," + i.intruder_call);
  }
  return out;
}

void expect_equal(const DetectReport& got, const DetectReport& want,
                  const std::string& where) {
  EXPECT_EQ(got.rounds, want.rounds) << where;
  EXPECT_EQ(got.sync_events, want.sync_events) << where;
  EXPECT_EQ(got.windows, want.windows) << where;
  EXPECT_EQ(got.mutations, want.mutations) << where;
  EXPECT_EQ(got.races, want.races) << where;
  EXPECT_EQ(got.rounds_with_race, want.rounds_with_race) << where;
  EXPECT_EQ(got.pair_windows, want.pair_windows) << where;
  EXPECT_EQ(got.pair_races, want.pair_races) << where;
  EXPECT_EQ(got.ordered_mutations, want.ordered_mutations) << where;
  EXPECT_EQ(got.findings.size(), want.findings.size()) << where;
  EXPECT_EQ(got.summary(), want.summary()) << where;
  EXPECT_EQ(got.to_csv(), want.to_csv()) << where;
}

// ---------------------------------------------------------------------
// Synthetic rounds.

// Names with shared prefixes, so that a finder matching by prefix or by
// length would pair the wrong calls.
const char* const kNames[] = {"/h/f", "/h/f2", "/h/ff", "/h", "/h/f/g",
                              "/tmp/a", ""};
const char* const kTargets[] = {"/etc/passwd", "/h/f", "/h/f2"};
const char* const kOps[] = {"stat",  "lstat",   "open",   "access", "chown",
                            "chmod", "unlink",  "symlink", "rename", "link",
                            "mkdir", "readlink", "read",  "write",  "close"};
const char* const kFlags[] = {"window_found", "handoff"};
// Pids with a gap: a process index no event names reads as zero.
const trace::Pid kPids[] = {1, 2, 3, 5, 6};

struct Synthetic {
  SyncLog sync;
  trace::SyscallJournal journal;
};

Synthetic synthetic_round(std::uint64_t seed) {
  Rng rng(seed);
  Synthetic s;
  const int procs = static_cast<int>(rng.uniform_int(2, 5));
  for (int p = 0; p < procs; ++p) {
    // Some processes never start: their uid reads as root.
    if (rng.bernoulli(0.9)) {
      s.sync.proc_start(kPids[p],
                        rng.bernoulli(0.5) ? 0u : 500u + static_cast<unsigned>(p));
    }
  }
  struct Open {
    bool in_call = false;
    Call call;
  };
  std::vector<Open> open(static_cast<std::size_t>(procs));
  std::int64_t t = 0;
  const int steps = static_cast<int>(rng.uniform_int(0, 120));
  for (int step = 0; step < steps; ++step) {
    const auto p = static_cast<std::size_t>(rng.uniform_int(0, procs - 1));
    const trace::Pid pid = kPids[p];
    // Same-instant calls come up often: time moves on only some steps.
    if (rng.bernoulli(0.5)) t += rng.uniform_int(1, 3);
    const SimTime now = SimTime::origin() + Duration::micros(t);
    if (rng.bernoulli(0.5)) {
      // A synchronization edge, inside a call or between calls.
      const auto ino = static_cast<std::uint64_t>(rng.uniform_int(1, 2));
      switch (rng.uniform_int(0, 3)) {
        case 0: s.sync.sem_acquire(pid, ino); break;
        case 1: s.sync.sem_release(pid, ino); break;
        case 2: s.sync.flag_set(pid, kFlags[rng.uniform_int(0, 1)]); break;
        default: s.sync.flag_wake(pid, kFlags[rng.uniform_int(0, 1)]); break;
      }
      continue;
    }
    Open& o = open[p];
    if (!o.in_call) {
      s.sync.sc_enter(pid);
      o.in_call = true;
      Call& c = o.call;
      c = Call{};
      c.pid = pid;
      c.name = kOps[rng.uniform_int(0, 14)];
      c.enter = now;
      c.path = kNames[rng.uniform_int(0, 6)];
      if (c.name == "rename" || c.name == "link") {
        c.path2 = kNames[rng.uniform_int(0, 6)];
      } else if (c.name == "symlink") {
        c.path2 = kTargets[rng.uniform_int(0, 2)];
      }
      c.result = rng.bernoulli(0.2) ? Errno::enoent : Errno::ok;
      if (c.result == Errno::ok) {
        if (c.name == "stat" || c.name == "lstat") {
          c.st_uid = static_cast<std::uint32_t>(rng.uniform_int(0, 1) * 500);
          c.st_gid = c.st_uid;
          if (rng.bernoulli(0.8)) {
            c.st_ino = static_cast<std::uint64_t>(rng.uniform_int(10, 13));
          }
        } else if (rng.bernoulli(0.7)) {
          c.applied_ino = static_cast<std::uint64_t>(rng.uniform_int(10, 13));
        }
      }
      continue;
    }
    o.call.exit = now;
    s.sync.sc_exit(pid, s.journal.records().size());
    append(&s.journal, o.call);
    o.in_call = false;
  }
  // Calls still open are in flight at the round's end: never journaled.
  return s;
}

TEST(DetectorDifferentialTest, SyntheticRoundsMatchTheReference) {
  std::uint64_t windows = 0, races = 0, suppressed = 0, interleaved = 0;
  for (std::uint64_t seed = 1; seed <= 2400; ++seed) {
    const Synthetic s = synthetic_round(seed);
    const std::vector<Call> calls = calls_of(s.journal);
    const DetectReport want = ref_analyze(s.sync, calls);
    const DetectReport got = analyze_round(s.sync, s.journal);
    expect_equal(got, want, "seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
    windows += want.windows;
    races += want.races;
    for (const auto& [k, v] : want.ordered_mutations) suppressed += v;
    // Findings of one window by more than one mutator, out of pid order.
    for (std::size_t i = 1; i < want.findings.size(); ++i) {
      const RaceFinding& a = want.findings[i - 1];
      const RaceFinding& b = want.findings[i];
      if (a.victim == b.victim && a.check_exit == b.check_exit &&
          a.use_enter == b.use_enter && a.path == b.path &&
          a.mutator > b.mutator) {
        ++interleaved;
      }
    }
  }
  // The rounds exercise every branch of the predicate.
  EXPECT_GT(windows, 2000u);
  EXPECT_GT(races, 1000u);
  EXPECT_GT(suppressed, 200u);
  EXPECT_GT(interleaved, 20u);
}

// ---------------------------------------------------------------------
// Real rounds.

core::ScenarioConfig scenario(programs::TestbedProfile profile,
                              core::VictimKind victim,
                              core::AttackerKind attacker,
                              std::uint64_t file_bytes) {
  core::ScenarioConfig cfg;
  cfg.profile = std::move(profile);
  cfg.victim = victim;
  cfg.attacker = attacker;
  cfg.file_bytes = file_bytes;
  cfg.detect = true;
  return cfg;
}

std::vector<std::pair<std::string, core::ScenarioConfig>> scenarios() {
  using core::AttackerKind;
  using core::VictimKind;
  std::vector<std::pair<std::string, core::ScenarioConfig>> out = {
      {"up_vi_naive",
       scenario(programs::testbed_uniprocessor_xeon(), VictimKind::vi,
                AttackerKind::naive, 4096)},
      {"smp_vi_naive",
       scenario(programs::testbed_smp_dual_xeon(), VictimKind::vi,
                AttackerKind::naive, 20 * 1024)},
      {"multicore_gedit_prefaulted",
       scenario(programs::testbed_multicore_pentium_d(), VictimKind::gedit,
                AttackerKind::prefaulted, 100 * 1024)},
      {"multicore_gedit_naive",
       scenario(programs::testbed_multicore_pentium_d(), VictimKind::gedit,
                AttackerKind::naive, 4096)},
      {"smp_gedit_pipelined",
       scenario(programs::testbed_smp_dual_xeon(), VictimKind::gedit,
                AttackerKind::pipelined, 4096)},
      {"smp_sendmail_naive",
       scenario(programs::testbed_smp_dual_xeon(), VictimKind::sendmail,
                AttackerKind::naive, 4096)},
      {"multicore_suspending_prefaulted",
       scenario(programs::testbed_multicore_pentium_d(),
                VictimKind::suspending, AttackerKind::prefaulted, 4096)},
      {"smp_vi_faults",
       scenario(programs::testbed_smp_dual_xeon(), VictimKind::vi,
                AttackerKind::naive, 4096)},
  };
  std::string err;
  const bool parsed = sim::FaultPlan::parse(
      "error:0.05:errno=eintr:role=victim,error:0.02:errno=eio:"
      "path=/home/alice,spike:0.02:us=80,wakeup-delay:0.02:us=40",
      &out.back().second.faults, &err);
  EXPECT_TRUE(parsed) << err;
  return out;
}

TEST(DetectorDifferentialTest, RealRoundsMatchTheReference) {
  std::uint64_t races = 0;
  for (const auto& [name, base] : scenarios()) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      core::ScenarioConfig cfg = base;
      cfg.seed = seed;
      const core::RoundResult r = core::run_round(cfg);
      const std::string where = name + " seed " + std::to_string(seed);
      const std::vector<Call> calls = calls_of(r.trace.journal);
      const DetectReport want = ref_analyze(r.sync, calls);
      expect_equal(analyze_round(r.sync, r.trace.journal), want, where);
      expect_equal(r.detect, want, where);
      EXPECT_EQ(pairs_text(r.trace.journal, r.victim_pid),
                ref_pairs(calls, r.victim_pid))
          << where;
      EXPECT_EQ(pairs_text(r.trace.journal, r.attacker_pid),
                ref_pairs(calls, r.attacker_pid))
          << where;
      EXPECT_EQ(interference_text(r.trace.journal, r.victim_pid),
                ref_interference(calls, r.victim_pid))
          << where;
      if (::testing::Test::HasFailure()) return;
      races += want.races;
    }
  }
  EXPECT_GT(races, 0u);
}

}  // namespace
}  // namespace tocttou::detect
