#include "tocttou/detect/detector.h"

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/detect/classify.h"
#include "tocttou/detect/vector_clock.h"

namespace tocttou::detect {
namespace {

// Causal position of one completed syscall: full clock snapshot at
// sc_enter plus the process's own event counters at the two brackets.
// Event (P, k) happens-before a syscall boundary iff the boundary's
// snapshot has seen counter k of P.
struct CallClock {
  VectorClock enter_vc;
  std::uint32_t enter_k = 0;
  std::uint32_t exit_k = 0;
};

struct Replay {
  std::vector<VectorClock> vc;                 // per process index
  std::vector<std::uint32_t> uid;              // from proc_start
  std::vector<std::vector<CallClock>> calls;   // per pid, completed calls
};

std::size_t pidx(trace::Pid p) { return static_cast<std::size_t>(p) - 1; }

// Single pass over the append-ordered log. Release-style events
// (sem_release, flag_set) tick first and then publish the releaser's
// full clock under the object's name; acquire-style events (sem_acquire,
// flag_wake) join from the published clock and then tick — the standard
// message-passing vector-clock algebra with the object as the channel.
Replay replay_sync(const SyncLog& sync) {
  Replay st;
  std::map<std::string, VectorClock> sem_released;
  std::map<std::string, VectorClock> flag_published;
  std::vector<char> in_call;

  auto grow = [&](std::size_t i) {
    if (st.vc.size() <= i) {
      st.vc.resize(i + 1);
      st.uid.resize(i + 1, 0);
      st.calls.resize(i + 1);
      in_call.resize(i + 1, 0);
    }
  };

  for (const SyncEvent& e : sync.events()) {
    TOCTTOU_CHECK(e.pid != 0, "sync event with null pid");
    const std::size_t i = pidx(e.pid);
    grow(i);
    VectorClock& v = st.vc[i];
    switch (e.kind) {
      case SyncKind::proc_start:
        st.uid[i] = e.uid;
        v.tick(i);
        break;
      case SyncKind::proc_exit:
        v.tick(i);
        break;
      case SyncKind::sem_acquire: {
        auto it = sem_released.find(e.obj);
        if (it != sem_released.end()) v.join(it->second);
        v.tick(i);
        break;
      }
      case SyncKind::sem_release:
        v.tick(i);
        sem_released[e.obj] = v;
        break;
      case SyncKind::flag_set:
        v.tick(i);
        flag_published[e.obj] = v;
        break;
      case SyncKind::flag_wake: {
        auto it = flag_published.find(e.obj);
        if (it != flag_published.end()) v.join(it->second);
        v.tick(i);
        break;
      }
      case SyncKind::sc_enter: {
        TOCTTOU_CHECK(!in_call[i], "nested sc_enter for one pid");
        in_call[i] = 1;
        CallClock c;
        c.enter_k = v.tick(i);
        c.enter_vc = v;
        st.calls[i].push_back(std::move(c));
        break;
      }
      case SyncKind::sc_exit:
        TOCTTOU_CHECK(in_call[i], "sc_exit without sc_enter");
        in_call[i] = 0;
        st.calls[i].back().exit_k = v.tick(i);
        break;
    }
  }
  // A round can end with a syscall still in service; it never journaled,
  // so drop its dangling bracket before pairing.
  for (std::size_t i = 0; i < st.calls.size(); ++i) {
    if (in_call[i]) st.calls[i].pop_back();
  }
  return st;
}

// A <check, use> window rediscovered from one process's record stream.
struct Window {
  std::size_t pid_i;       // victim process index
  std::size_t check_rec;   // journal indices
  std::size_t use_rec;
  std::size_t check_call;  // per-pid call indices (into Replay::calls)
  std::size_t use_call;
  std::string path;
};

}  // namespace

DetectReport analyze_round(const SyncLog& sync,
                           const trace::SyscallJournal& journal) {
  DetectReport rep;
  rep.rounds = 1;
  rep.sync_events = sync.events().size();

  Replay st = replay_sync(sync);
  const auto& recs = journal.records();

  // Pair the i-th journal record of each pid with its i-th completed
  // call bracket (both streams are per-pid program order).
  std::vector<std::size_t> call_of(recs.size(), 0);
  std::vector<std::vector<std::size_t>> by_pid(st.calls.size());
  {
    std::vector<std::size_t> next(st.calls.size(), 0);
    for (std::size_t r = 0; r < recs.size(); ++r) {
      const std::size_t i = pidx(recs[r].pid);
      TOCTTOU_CHECK(i < st.calls.size() && next[i] < st.calls[i].size(),
                    "sync log and syscall journal out of step");
      call_of[r] = next[i]++;
      by_pid[i].push_back(r);
    }
    for (std::size_t i = 0; i < next.size(); ++i) {
      TOCTTOU_CHECK(next[i] == st.calls[i].size(),
                    "sync log has calls the journal never recorded");
    }
  }

  // Attacker-writable mutations: successful mutators issued by a
  // non-root process.
  std::vector<std::size_t> mutations;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    if (is_mutator_name(recs[r].name) && recs[r].result == Errno::ok &&
        st.uid[pidx(recs[r].pid)] != 0) {
      mutations.push_back(r);
    }
  }
  rep.mutations = mutations.size();

  // Rediscover windows per process (detect/classify.h).
  std::vector<Window> windows;
  for (std::size_t i = 0; i < by_pid.size(); ++i) {
    for (const CheckUse& w : check_use_windows(recs, by_pid[i])) {
      windows.push_back({i, w.check, w.use, call_of[w.check],
                         call_of[w.use], std::string(w.name)});
    }
  }

  std::vector<std::string_view> names;
  for (const Window& w : windows) {
    const trace::SyscallRecord& crec = recs[w.check_rec];
    const trace::SyscallRecord& urec = recs[w.use_rec];
    const CallClock& check = st.calls[w.pid_i][w.check_call];
    const CallClock& use = st.calls[w.pid_i][w.use_call];
    const std::string pair = crec.name + "," + urec.name;
    ++rep.windows;
    ++rep.pair_windows[pair];

    // The inode the check observed, for symlink-alias matching.
    const std::optional<std::uint64_t> checked_ino =
        crec.st_ino ? crec.st_ino : crec.applied_ino;

    bool raced = false;
    for (std::size_t m : mutations) {
      const trace::SyscallRecord& mrec = recs[m];
      const std::size_t qi = pidx(mrec.pid);
      if (qi == w.pid_i) continue;

      // Same resolved name, or same inode through a different name.
      mutated_names(mrec, &names);
      bool hits = false;
      for (std::string_view n : names) hits = hits || n == w.path;
      if (!hits && checked_ino && mrec.applied_ino &&
          *mrec.applied_ino == *checked_ino) {
        hits = true;
      }
      if (!hits) continue;

      const CallClock& mut = st.calls[qi][call_of[m]];
      // M happens-before C: the mutation's exit was visible when the
      // check entered. U happens-before M symmetrically.
      if (check.enter_vc.at(qi) >= mut.exit_k) {
        ++rep.ordered_mutations["mutation-before-check"];
        continue;
      }
      if (mut.enter_vc.at(w.pid_i) >= use.exit_k) {
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
      f.path = w.path;
      f.check_exit = crec.exit;
      f.use_enter = urec.enter;
      f.mutator = mrec.pid;
      f.mutator_uid = st.uid[qi];
      f.mutator_call = mrec.name;
      f.mutation_enter = mrec.enter;
      f.ordered_after_check = mut.enter_vc.at(w.pid_i) >= check.exit_k;
      f.ordered_before_use = use.enter_vc.at(qi) >= mut.exit_k;
      rep.findings.push_back(std::move(f));
    }
    if (raced) rep.rounds_with_race = 1;
  }
  return rep;
}

}  // namespace tocttou::detect
