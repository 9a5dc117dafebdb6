#include "tocttou/detect/detector.h"

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/detect/classify.h"
#include "tocttou/detect/vector_clock.h"

namespace tocttou::detect {
namespace {

// Causal position of one completed syscall: full clock snapshot at
// sc_enter plus the process's own event counters at the two brackets.
// Event (P, k) happens-before a syscall boundary iff the boundary's
// snapshot has seen counter k of P. exit_k stays 0 until the call's
// sc_exit ticks (a tick returns at least 1).
struct CallClock {
  VectorClock enter_vc;
  std::uint32_t enter_k = 0;
  std::uint32_t exit_k = 0;
};

struct Replay {
  std::vector<VectorClock> vc;     // per process index
  std::vector<std::uint32_t> uid;  // from proc_start
  std::vector<CallClock> calls;    // per journal record
};

std::size_t pidx(trace::Pid p) { return static_cast<std::size_t>(p) - 1; }

// Single pass over the append-ordered log. Release-style events
// (sem_release, flag_set) tick first and then publish the releaser's
// full clock on the object's channel — an inode number or a flag index;
// acquire-style events (sem_acquire, flag_wake) join from the published
// clock and then tick — the standard message-passing vector-clock
// algebra with the object as the channel. Each sc_exit attaches its
// process's open call to the journal record it names.
Replay replay_sync(const SyncLog& sync,
                   const std::vector<trace::SyscallRecord>& recs) {
  Replay st;
  st.calls.resize(recs.size());
  std::unordered_map<std::uint64_t, VectorClock> sem_released;
  std::vector<VectorClock> flag_published(sync.flags().size());
  std::vector<CallClock> open;  // per process index: the call in service
  std::vector<char> in_call;

  auto grow = [&](std::size_t i) {
    if (st.vc.size() <= i) {
      st.vc.resize(i + 1);
      st.uid.resize(i + 1, 0);
      open.resize(i + 1);
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
        st.uid[i] = static_cast<std::uint32_t>(e.arg);
        v.tick(i);
        break;
      case SyncKind::proc_exit:
        v.tick(i);
        break;
      case SyncKind::sem_acquire: {
        auto it = sem_released.find(e.arg);
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
        v.join(flag_published[e.arg]);  // empty until the flag is set
        v.tick(i);
        break;
      case SyncKind::sc_enter:
        TOCTTOU_CHECK(!in_call[i], "nested sc_enter for one pid");
        in_call[i] = 1;
        open[i].enter_k = v.tick(i);
        open[i].enter_vc = v;
        break;
      case SyncKind::sc_exit: {
        TOCTTOU_CHECK(in_call[i], "sc_exit without sc_enter");
        TOCTTOU_CHECK(e.arg < recs.size() && recs[e.arg].pid == e.pid,
                      "sync bracket names no journal record of its process");
        CallClock& c = st.calls[e.arg];
        TOCTTOU_CHECK(c.exit_k == 0,
                      "two sync brackets name one journal record");
        in_call[i] = 0;
        c = std::move(open[i]);
        c.exit_k = v.tick(i);
        break;
      }
    }
  }
  // A call still in service when the round ended never journaled; its
  // open bracket names nothing and is dropped.
  for (const CallClock& c : st.calls) {
    TOCTTOU_CHECK(c.exit_k != 0, "journal record without a sync bracket");
  }
  return st;
}

}  // namespace

DetectReport analyze_round(const SyncLog& sync,
                           const trace::SyscallJournal& journal) {
  DetectReport rep;
  rep.rounds = 1;
  rep.sync_events = sync.events().size();

  const auto& recs = journal.records();
  const Replay st = replay_sync(sync, recs);

  // Each process's records in program order. Every record's process is
  // in the replay: its bracket named it.
  std::vector<std::vector<std::size_t>> by_pid(st.vc.size());
  for (std::size_t r = 0; r < recs.size(); ++r) {
    by_pid[pidx(recs[r].pid)].push_back(r);
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

  // Rediscover windows per process (detect/classify.h) and match each
  // against every mutation of another process.
  std::vector<std::string_view> names;
  for (std::size_t vi = 0; vi < by_pid.size(); ++vi) {
    for (const CheckUse& w : check_use_windows(recs, by_pid[vi])) {
      const trace::SyscallRecord& crec = recs[w.check];
      const trace::SyscallRecord& urec = recs[w.use];
      const CallClock& check = st.calls[w.check];
      const CallClock& use = st.calls[w.use];
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
        if (qi == vi) continue;

        // Same resolved name, or same inode through a different name.
        mutated_names(mrec, &names);
        bool hits = false;
        for (std::string_view n : names) hits = hits || n == w.name;
        if (!hits && checked_ino && mrec.applied_ino &&
            *mrec.applied_ino == *checked_ino) {
          hits = true;
        }
        if (!hits) continue;

        const CallClock& mut = st.calls[m];
        // M happens-before C: the mutation's exit was visible when the
        // check entered. U happens-before M symmetrically.
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
        f.path = std::string(w.name);
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

}  // namespace tocttou::detect
