#include "tocttou/detect/detector.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/detect/classify.h"

namespace tocttou::detect {
namespace {

std::size_t pidx(trace::Pid p) { return static_cast<std::size_t>(p) - 1; }

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

// Dense ids, in first-seen order, for 64-bit keys (inode numbers): an
// open-addressing table sized for at most `max_keys` keys.
class DenseIds {
 public:
  explicit DenseIds(std::size_t max_keys)
      : slots_(std::bit_ceil(std::max<std::size_t>(2 * max_keys, 2))),
        shift_(64 - std::countr_zero(slots_.size())) {}

  std::uint32_t insert(std::uint64_t key) {
    Slot& s = slots_[probe(key)];
    if (s.id == kNone) s = {key, size_++};
    return s.id;
  }
  std::uint32_t find(std::uint64_t key) const {
    return slots_[probe(key)].id;
  }
  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t id = kNone;
  };

  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].id != kNone && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  std::vector<Slot> slots_;
  int shift_;
  std::uint32_t size_ = 0;
};

// Records grouped by a dense key, each group in journal order: group k
// is recs[start[k], start[k + 1]). `each(emit)` must call emit(key, rec)
// for every entry in journal order; it runs twice (a counting sort).
struct Groups {
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> recs;
};

template <class Each>
Groups group_by(std::size_t keys, Each each) {
  Groups g;
  g.start.assign(keys + 1, 0);
  each([&g](std::size_t key, std::size_t) { ++g.start[key + 1]; });
  for (std::size_t k = 0; k < keys; ++k) g.start[k + 1] += g.start[k];
  g.recs.resize(g.start[keys]);
  each([&g](std::size_t key, std::size_t rec) {
    g.recs[g.start[key]++] = static_cast<std::uint32_t>(rec);
  });
  for (std::size_t k = keys; k > 0; --k) g.start[k] = g.start[k - 1];
  g.start[0] = 0;
  return g;
}

// The round's causal order, from one pass over the sync log. A vector
// clock is a flat row of `width` counters, one per process index (pid -
// 1), as wide as the round's largest pid. Each journaled call keeps the
// row of its process's clock at sc_enter and its own counter at sc_exit:
// event (P, k) happens-before a call's entry iff the call's row has seen
// counter k of P. exit_k stays 0 until the call's sc_exit ticks (a tick
// yields at least 1).
struct Replay {
  std::size_t width = 0;
  std::vector<std::uint32_t> uid;       // per process, from proc_start
  std::vector<std::uint32_t> rows;      // sc_enter snapshots, `width` each
  std::vector<std::uint32_t> call_row;  // per record: its snapshot
  std::vector<std::uint32_t> exit_k;    // per record: counter at sc_exit

  const std::uint32_t* enter_vc(std::size_t rec) const {
    return rows.data() + std::size_t{call_row[rec]} * width;
  }
};

bool is_sem(const SyncEvent& e) {
  return e.kind == SyncKind::sem_acquire || e.kind == SyncKind::sem_release;
}

// Release-style events (sem_release, flag_set) tick first and then
// publish the releaser's clock on the object's channel — an inode's
// semaphore or a flag; acquire-style events (sem_acquire, flag_wake) join
// from the channel's published clock and then tick — the standard
// message-passing vector-clock algebra with the object as the channel. A
// channel nothing has published on holds zeros, so joining it is a no-op.
// Each sc_exit attaches its process's open call to the journal record it
// names.
Replay replay_sync(const SyncLog& sync,
                   const std::vector<trace::SyscallRecord>& recs) {
  const std::vector<SyncEvent>& events = sync.events();
  Replay st;
  // Sizes first: the width, the snapshots, and the channels (the
  // semaphores', by inode, then the flags').
  std::size_t enters = 0, sems = 0;
  for (const SyncEvent& e : events) {
    TOCTTOU_CHECK(e.pid != 0, "sync event with null pid");
    st.width = std::max(st.width, std::size_t{e.pid});
    if (e.kind == SyncKind::sc_enter) ++enters;
    if (is_sem(e)) ++sems;
  }
  DenseIds sem_channel(sems);
  for (const SyncEvent& e : events) {
    if (is_sem(e)) sem_channel.insert(e.arg);
  }
  const std::size_t w = st.width;
  const std::size_t flag_base = sem_channel.size();

  st.uid.assign(w, 0);
  st.rows.resize(enters * w);
  st.call_row.assign(recs.size(), kNone);
  st.exit_k.assign(recs.size(), 0);
  std::vector<std::uint32_t> clock(w * w, 0);  // per process
  std::vector<std::uint32_t> published((flag_base + sync.flags().size()) * w,
                                       0);
  std::vector<std::uint32_t> open(w, kNone);  // per process: its call's row
  std::uint32_t next_row = 0;

  auto join = [w](std::uint32_t* v, const std::uint32_t* from) {
    for (std::size_t j = 0; j < w; ++j) v[j] = std::max(v[j], from[j]);
  };
  for (const SyncEvent& e : events) {
    const std::size_t i = pidx(e.pid);
    std::uint32_t* v = clock.data() + i * w;
    switch (e.kind) {
      case SyncKind::proc_start:
        st.uid[i] = static_cast<std::uint32_t>(e.arg);
        ++v[i];
        break;
      case SyncKind::proc_exit:
        ++v[i];
        break;
      case SyncKind::sem_acquire:
        join(v, published.data() + sem_channel.find(e.arg) * w);
        ++v[i];
        break;
      case SyncKind::sem_release:
        ++v[i];
        std::copy_n(v, w, published.data() + sem_channel.find(e.arg) * w);
        break;
      case SyncKind::flag_set:
        ++v[i];
        std::copy_n(v, w, published.data() + (flag_base + e.arg) * w);
        break;
      case SyncKind::flag_wake:
        join(v, published.data() + (flag_base + e.arg) * w);
        ++v[i];
        break;
      case SyncKind::sc_enter:
        TOCTTOU_CHECK(open[i] == kNone, "nested sc_enter for one pid");
        ++v[i];
        open[i] = next_row++;
        std::copy_n(v, w, st.rows.data() + std::size_t{open[i]} * w);
        break;
      case SyncKind::sc_exit:
        TOCTTOU_CHECK(open[i] != kNone, "sc_exit without sc_enter");
        TOCTTOU_CHECK(e.arg < recs.size() && recs[e.arg].pid == e.pid,
                      "sync bracket names no journal record of its process");
        TOCTTOU_CHECK(st.exit_k[e.arg] == 0,
                      "two sync brackets name one journal record");
        st.call_row[e.arg] = open[i];
        open[i] = kNone;
        st.exit_k[e.arg] = ++v[i];
        break;
    }
  }
  // A call still in service when the round ended never journaled; its
  // open bracket names nothing and is dropped.
  for (const std::uint32_t k : st.exit_k) {
    TOCTTOU_CHECK(k != 0, "journal record without a sync bracket");
  }
  return st;
}

// Windows and races of one <check, use> pair shape, by op-name id.
struct PairCount {
  trace::StrId check = trace::kEmptyStr;
  trace::StrId use = trace::kEmptyStr;
  std::uint64_t windows = 0;
  std::uint64_t races = 0;
};

}  // namespace

DetectReport analyze_round(const SyncLog& sync,
                           const trace::SyscallJournal& journal) {
  DetectReport rep;
  rep.rounds = 1;
  rep.sync_events = sync.events().size();

  const auto& recs = journal.records();
  const Replay st = replay_sync(sync, recs);
  const std::size_t width = st.width;
  WindowFinder finder(journal);

  // Each process's records in program order. Every record's process is
  // in the replay: its bracket named it.
  const Groups by_pid = group_by(width, [&](auto emit) {
    for (std::size_t r = 0; r < recs.size(); ++r) emit(pidx(recs[r].pid), r);
  });

  // Attacker-writable mutations — successful mutators issued by a
  // non-root process — in journal order, grouped by (name id, process)
  // for each name they mutate and by (inode, process) for the inode they
  // were applied to.
  struct Mutation {
    std::uint32_t rec = 0;
    std::uint32_t proc = 0;
    NameIds names;
    std::uint32_t inode = kNone;  // dense id of applied_ino
  };
  auto writable = [&](const trace::SyscallRecord& r) {
    return finder.kind(r).mutator && r.result == Errno::ok &&
           st.uid[pidx(r.pid)] != 0;
  };
  for (const trace::SyscallRecord& r : recs) rep.mutations += writable(r);
  std::vector<Mutation> muts;
  muts.reserve(rep.mutations);
  std::size_t applied = 0;
  for (std::size_t m = 0; m < recs.size(); ++m) {
    const trace::SyscallRecord& r = recs[m];
    if (!writable(r)) continue;
    Mutation& mu = muts.emplace_back();
    mu.rec = static_cast<std::uint32_t>(m);
    mu.proc = static_cast<std::uint32_t>(pidx(r.pid));
    mu.names = mutated_names(r, finder.kind(r));
    // rename(a, a) mutates one name.
    if (mu.names.size == 2 && mu.names.ids[0] == mu.names.ids[1]) {
      mu.names.size = 1;
    }
    if (r.applied_ino) ++applied;
  }
  DenseIds inodes(applied);
  for (Mutation& mu : muts) {
    if (recs[mu.rec].applied_ino) {
      mu.inode = inodes.insert(*recs[mu.rec].applied_ino);
    }
  }
  const Groups by_name =
      group_by(journal.string_count() * width, [&](auto emit) {
        for (const Mutation& mu : muts) {
          for (const trace::StrId n : mu.names) {
            emit(n * width + mu.proc, mu.rec);
          }
        }
      });
  const Groups by_inode = group_by(inodes.size() * width, [&](auto emit) {
    for (const Mutation& mu : muts) {
      if (mu.inode != kNone) emit(mu.inode * width + mu.proc, mu.rec);
    }
  });

  // Appends key's mutations by processes other than `vi` in journal
  // order: the groups before vi's and after it.
  auto gather = [width](const Groups& g, std::size_t key, std::size_t vi,
                        std::vector<std::uint32_t>* out) {
    const std::uint32_t* recs_of = g.recs.data();
    const std::size_t base = key * width;
    out->insert(out->end(), recs_of + g.start[base],
                recs_of + g.start[base + vi]);
    out->insert(out->end(), recs_of + g.start[base + vi + 1],
                recs_of + g.start[base + width]);
    // Several processes' groups interleave in the journal.
    if (!std::is_sorted(out->begin(), out->end())) {
      std::sort(out->begin(), out->end());
    }
  };

  // Rediscover windows per process (detect/classify.h) and match each
  // against the other processes' mutations of its name or of the inode
  // its check observed (symlink-alias matching), in journal order.
  std::vector<PairCount> pairs;
  std::uint64_t before_check = 0, use_before = 0;
  std::size_t most = 0;
  for (std::size_t p = 0; p < width; ++p) {
    most = std::max<std::size_t>(most, by_pid.start[p + 1] - by_pid.start[p]);
  }
  std::vector<CheckUse> windows;
  windows.reserve(2 * most);  // a use acts on at most two names
  std::vector<std::uint32_t> hits, by_ino, merged;
  hits.reserve(by_name.recs.size() + by_inode.recs.size());
  merged.reserve(hits.capacity());
  by_ino.reserve(by_inode.recs.size());
  for (std::size_t vi = 0; vi < width; ++vi) {
    windows.clear();
    finder.check_use_windows(
        std::span(by_pid.recs)
            .subspan(by_pid.start[vi], by_pid.start[vi + 1] - by_pid.start[vi]),
        &windows);
    for (const CheckUse& w : windows) {
      const trace::SyscallRecord& crec = recs[w.check];
      const trace::SyscallRecord& urec = recs[w.use];
      std::size_t pair = 0;
      while (pair < pairs.size() &&
             (pairs[pair].check != crec.name || pairs[pair].use != urec.name)) {
        ++pair;
      }
      if (pair == pairs.size()) pairs.push_back({crec.name, urec.name});
      ++pairs[pair].windows;
      ++rep.windows;

      hits.clear();
      gather(by_name, w.name, vi, &hits);
      // The inode the check observed, for symlink-alias matching.
      const std::optional<std::uint64_t> checked_ino =
          crec.st_ino ? crec.st_ino : crec.applied_ino;
      const std::uint32_t inode =
          checked_ino ? inodes.find(*checked_ino) : kNone;
      if (inode != kNone) {
        by_ino.clear();
        gather(by_inode, inode, vi, &by_ino);
        merged.clear();
        std::set_union(hits.begin(), hits.end(), by_ino.begin(), by_ino.end(),
                       std::back_inserter(merged));
        hits.swap(merged);
      }

      const std::uint32_t* check = st.enter_vc(w.check);
      const std::uint32_t* use = st.enter_vc(w.use);
      bool raced = false;
      for (const std::uint32_t m : hits) {
        const trace::SyscallRecord& mrec = recs[m];
        const std::size_t qi = pidx(mrec.pid);
        const std::uint32_t* mut = st.enter_vc(m);
        // M happens-before C: the mutation's exit was visible when the
        // check entered. U happens-before M symmetrically.
        if (check[qi] >= st.exit_k[m]) {
          ++before_check;
          continue;
        }
        if (mut[vi] >= st.exit_k[w.use]) {
          ++use_before;
          continue;
        }

        raced = true;
        ++rep.races;
        ++pairs[pair].races;
        RaceFinding f;
        f.victim = crec.pid;
        f.check_call = journal.name(crec);
        f.use_call = journal.name(urec);
        f.path = journal.text(w.name);
        f.check_exit = crec.exit;
        f.use_enter = urec.enter;
        f.mutator = mrec.pid;
        f.mutator_uid = st.uid[qi];
        f.mutator_call = journal.name(mrec);
        f.mutation_enter = mrec.enter;
        f.ordered_after_check = mut[vi] >= st.exit_k[w.check];
        f.ordered_before_use = use[qi] >= st.exit_k[m];
        rep.findings.push_back(std::move(f));
      }
      if (raced) rep.rounds_with_race = 1;
    }
  }

  // Keyed by text only now, once per pair shape.
  for (const PairCount& p : pairs) {
    std::string key(journal.text(p.check));
    key += ',';
    key += journal.text(p.use);
    if (p.races > 0) rep.pair_races[key] += p.races;
    rep.pair_windows[std::move(key)] += p.windows;
  }
  if (before_check > 0) {
    rep.ordered_mutations["mutation-before-check"] = before_check;
  }
  if (use_before > 0) rep.ordered_mutations["use-before-mutation"] = use_before;
  return rep;
}

}  // namespace tocttou::detect
