#include "tocttou/explore/explorer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tocttou/common/error.h"
#include "tocttou/common/rng.h"
#include "tocttou/common/state_hash.h"
#include "tocttou/core/round_run.h"
#include "tocttou/explore/exploring_scheduler.h"
#include "tocttou/explore/resilience.h"
#include "tocttou/explore/sweep_journal.h"

namespace tocttou::explore {

namespace {

struct ThinkBucket {
  Duration think;
  double mass = 0.0;
};

/// Midpoint-quadrature buckets over the harness's think distribution.
/// When the scenario pins victim_think there is nothing to integrate:
/// one bucket with all the mass.
std::vector<ThinkBucket> make_buckets(const core::ScenarioConfig& cfg,
                                      int k) {
  if (cfg.victim_think) return {{*cfg.victim_think, 1.0}};
  TOCTTOU_CHECK(k >= 1, "need at least one think bucket");
  const auto [lo, hi] = core::victim_think_range(cfg);
  const double span = static_cast<double>((hi - lo).ns());
  std::vector<ThinkBucket> out;
  out.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const double mid = (2.0 * i + 1.0) / (2.0 * k);
    out.push_back({lo + Duration::nanos(static_cast<std::int64_t>(
                            span * mid)),
                   1.0 / k});
  }
  return out;
}

/// Everything a leaf round contributes to the reduction — now the
/// journal's on-disk record type (sweep_journal.h), so re-reducing a
/// resumed leaf is the same code path as reducing a fresh one.
using LeafOutcome = LeafRecord;

/// Side data a fresh execution hands the serial reduction NEXT TO its
/// LeafOutcome — never inside it, so the journal's on-disk LeafRecord
/// format is untouched. Carries the state digests the leaf recorded
/// (state-hash donor points) and whether the leaf merged into a donor
/// instead of running to completion.
struct LeafSide {
  /// Candidate donor points: the full-state digest at (a) the event
  /// where the forced prefix was consumed and (b) every later event
  /// that resolved new sites, with the leaf's progress at each.
  struct Point {
    StateHasher::Digest digest;
    std::uint64_t event = 0;
    std::size_t sites_at = 0;
  };
  std::vector<Point> points;
  /// Kernel events this leaf executed (donor tail-length accounting).
  std::uint64_t total_events = 0;
  /// The leaf stopped at a donor match and synthesized its outcome.
  bool merged = false;
};

/// One entry of the donor table: a completed leaf (an outcome interned
/// in the store, or an earlier sibling in the running group — either
/// way the pointer is stable) plus where along its execution the digest
/// was taken. A later leaf matching the digest copies the donor's tail
/// — sites/choices/events past `sites_at`, success and window — instead
/// of executing it.
struct DonorPoint {
  const LeafOutcome* rec = nullptr;
  std::uint64_t total_events = 0;
  std::size_t sites_at = 0;
  std::uint64_t event = 0;
};

/// Donor table key: bucket id + the 128-bit state digest. Schedules in
/// different think buckets never share state (the victim think time
/// differs), so the bucket tag keeps their digests apart even in the
/// astronomically unlikely event of a cross-bucket hash collision.
std::string donor_key(int bucket, const StateHasher::Digest& d) {
  std::string key;
  key.reserve(20);
  for (int b = 0; b < 4; ++b) {
    key.push_back(static_cast<char>((static_cast<unsigned>(bucket) >>
                                     (8 * b)) & 0xffu));
  }
  for (int b = 0; b < 8; ++b) {
    key.push_back(static_cast<char>((d.lo >> (8 * b)) & 0xffu));
  }
  for (int b = 0; b < 8; ++b) {
    key.push_back(static_cast<char>((d.hi >> (8 * b)) & 0xffu));
  }
  return key;
}

/// Donor-table size cap (entries). Insertion happens in canonical
/// reduction order, so truncating at a fixed size is jobs-invariant —
/// later leaves simply stop donating once the table is full.
constexpr std::size_t kDonorCap = std::size_t{1} << 20;

/// Live mid-round checkpoints (full VFS/kernel clones) the fork
/// path may retain at once; the cap bounds resident memory. A group
/// whose checkpoint was crowded out replays its parent's prefix from
/// the start of the round instead (explore.degraded_groups) — wall time
/// changes, results never do.
constexpr int kSeedBudget = 512;

/// PCT's estimate of the choice sites per schedule, the k its change
/// points are drawn over. The sweep journal's header records it.
constexpr int kPctExpectedSteps = 64;

/// A retained mid-round checkpoint: the parent round advanced to (one of)
/// its fork boundaries, kept so the group that expands the leaf forked
/// there can resume from the boundary instead of replaying the whole
/// prefix. It moves from the group that minted it straight to that
/// group. Destruction returns the budget slot.
struct Seed {
  std::unique_ptr<core::RoundRun> run;
  std::size_t sites_at = 0;  // choice sites already resolved at this state
  std::atomic<int>* slots;

  Seed(std::unique_ptr<core::RoundRun> r, std::size_t s, std::atomic<int>* c)
      : run(std::move(r)), sites_at(s), slots(c) {}
  Seed(const Seed&) = delete;
  Seed& operator=(const Seed&) = delete;
  ~Seed() { slots->fetch_add(1, std::memory_order_relaxed); }
};

/// Every outcome the explorer has reduced, and the state-hash donor
/// index into them. Each reduced leaf — executed, merged, or loaded from
/// a resumed journal, in exhaustive and PCT mode alike — is interned once
/// under its canonical schedule id, so "is this schedule's outcome
/// already known?" and "has this state been reached before?" are both
/// answered here.
///
/// Only the serial canonical reduction mutates the store; workers read
/// it lock-free while a batch executes (it is frozen then), so which
/// outcomes are reused and which merges happen never depend on worker
/// count or timing.
class OutcomeStore {
 public:
  /// The schedule's interned outcome, or null when it is not known.
  const LeafOutcome* find(const std::string& key) const {
    const auto f = entries_.find(key);
    return f != entries_.end() ? &f->second : nullptr;
  }
  bool contains(const std::string& key) const {
    return entries_.count(key) != 0;
  }

  /// Interns a leaf the store does not hold yet. Addresses are stable,
  /// so the journal batch, parent groups and donor points can all point
  /// here.
  const LeafOutcome& intern(const std::string& key, LeafOutcome&& o) {
    const auto [f, inserted] = entries_.try_emplace(key, std::move(o));
    TOCTTOU_CHECK(inserted, "schedule interned twice");
    return f->second;
  }

  /// The donor that reached `donor_key`'s state first, or null.
  const DonorPoint* donor(const std::string& donor_key) const {
    const auto f = donors_.find(donor_key);
    return f != donors_.end() ? &f->second : nullptr;
  }

  /// Publishes a fresh leaf's recorded state digests. Called in
  /// canonical reduction order, so the index is jobs-invariant; the
  /// first donor of a state wins and kDonorCap bounds memory.
  void donate(int bucket, const LeafSide& side, const LeafOutcome& o) {
    for (const LeafSide::Point& pt : side.points) {
      if (donors_.size() >= kDonorCap) break;
      donors_.emplace(donor_key(bucket, pt.digest),
                      DonorPoint{&o, side.total_events, pt.sites_at,
                                 pt.event});
    }
  }

 private:
  std::unordered_map<std::string, LeafOutcome> entries_;
  std::unordered_map<std::string, DonorPoint> donors_;
};

/// One parent schedule plus every child the expansion derived from it.
/// Grouping children under their parent is what lets a worker pay for
/// the shared prefix once: it replays the parent a single time (or
/// resumes its retained seed), then forks each child from a checkpoint
/// at its divergence site.
struct ParentGroup {
  int bucket = 0;
  /// The parent's outcome, interned in the store (stable address). Null
  /// in wave 0, where the group's one child is the bucket's policy
  /// schedule.
  const LeafOutcome* parent = nullptr;
  /// Mid-round checkpoint of the parent, when one was retained.
  std::unique_ptr<Seed> seed;
  struct Child {
    std::size_t site = 0;   // divergence site (index into parent sites)
    std::uint16_t alt = 0;  // the forced alternative option
    bool run = true;        // false: outcome already in the store
  };
  std::vector<Child> children;  // canonical (site, option) order

  /// Children that execute (the rest reduce from the store).
  int exec_count() const {
    int n = 0;
    for (const Child& c : children) n += c.run ? 1 : 0;
    return n;
  }
};

/// What one group's execution hands back to the serial reduction. Leaves
/// and seeds hold one entry per EXECUTED child, in child order.
struct GroupOutcome {
  std::vector<LeafOutcome> leaves;
  std::vector<std::unique_ptr<Seed>> seeds;
  /// State-hash side data, parallel to `leaves` (no points in replay
  /// mode, where leaves are never stepped).
  std::vector<LeafSide> sides;
  std::uint64_t checkpoints = 0;    // distinct fork boundaries reached
  std::uint64_t forks = 0;          // children forked (vs full-replayed)
  std::uint64_t prefix_ns_saved = 0;  // Σ simulated prefix ns not re-run
};

/// Canonical schedule id: bucket plus the forced choice prefix (each
/// choice as kind/chosen/n bytes), optionally extended by one forced
/// alternative. Keys are derived from parent choices, so they identify
/// the schedule regardless of how (or whether) it was executed.
std::string schedule_key(int bucket, const std::vector<Choice>& choices,
                         std::size_t len, const Choice* alt) {
  std::string key;
  key.reserve(4 + 5 * (len + (alt != nullptr ? 1 : 0)));
  for (int b = 0; b < 4; ++b) {
    key.push_back(static_cast<char>((static_cast<unsigned>(bucket) >>
                                     (8 * b)) & 0xffu));
  }
  const auto put = [&key](const Choice& c) {
    key.push_back(static_cast<char>(c.kind));
    key.push_back(static_cast<char>(c.chosen & 0xffu));
    key.push_back(static_cast<char>(c.chosen >> 8));
    key.push_back(static_cast<char>(c.n & 0xffu));
    key.push_back(static_cast<char>(c.n >> 8));
  };
  for (std::size_t i = 0; i < len; ++i) put(choices[i]);
  if (alt != nullptr) put(*alt);
  return key;
}

/// Canonical schedule id of one child of a group.
std::string child_key(const ParentGroup& g, const ParentGroup::Child& c) {
  if (g.parent == nullptr) return schedule_key(g.bucket, {}, 0, nullptr);
  Choice alt = g.parent->choices[c.site];
  alt.chosen = c.alt;
  return schedule_key(g.bucket, g.parent->choices, c.site, &alt);
}

/// One exploration worker: a ScenarioConfig copied ONCE (the per-leaf
/// cost is an optional<Duration> write and a ChoiceSource pointer swap —
/// not a full config copy with its strings and fault plan) plus a
/// RoundContext whose staged template tree every leaf starts from.
/// Pinned in memory: the scheduler factory captures `this`.
class Worker {
 public:
  Worker(const core::ScenarioConfig& base, const ExploreConfig& ecfg,
         std::uint32_t fingerprint, const OutcomeStore* store,
         std::atomic<int>* seed_slots)
      : cfg_(base),
        ecfg_(&ecfg),
        fingerprint_(fingerprint),
        store_(store),
        seed_slots_(seed_slots) {
    // Slot form: the scheduler — and every checkpoint clone of it —
    // reads the worker's CURRENT source at each decision, so a worker
    // can swap between a parent's source and a forked child's mid-round.
    cfg_.scheduler_factory = [this](const core::ScenarioConfig& c) {
      return std::make_unique<ExploringScheduler>(
          core::default_sched_params(c), &src_);
    };
  }

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// State hashing is execution avoidance: a leaf_observer expects every
  /// leaf to run to completion, so its presence disables merging.
  bool hash_on() const {
    return ecfg_->state_hash && !ecfg_->leaf_observer;
  }

  /// Full-replay leaf: the checkpoint-off path (and the historical
  /// behavior the fork path must reproduce byte-for-byte). Never
  /// stepped, so it records no donor points: with checkpointing off the
  /// state-hash counters honestly report zero merges.
  LeafOutcome run_guided(Duration think, std::vector<Choice> prefix) {
    const std::size_t prefix_len = prefix.size();
    GuidedSource src(std::move(prefix));
    src_ = &src;
    cfg_.victim_think = think;
    const core::RoundResult r = core::run_round(cfg_, ctx());
    src_ = nullptr;
    observe(think, src, r);
    return make_outcome(src, prefix_len, r, {});
  }

  /// Stepped leaf: the identical round executed event-by-event through
  /// a RoundRun, recording the event index at which every choice site
  /// resolved — the fork boundaries this leaf's children will
  /// checkpoint at. With state hashing, the stepping also records donor
  /// points and (when `allow_merge`) may stop at a donor match,
  /// synthesizing the outcome instead of finishing the run.
  LeafOutcome run_stepped(Duration think, std::vector<Choice> prefix,
                          LeafSide* side, int bucket, bool allow_merge) {
    const std::size_t prefix_len = prefix.size();
    GuidedSource src(std::move(prefix));
    src_ = &src;
    cfg_.victim_think = think;
    core::RoundRun run(cfg_, ctx());
    std::vector<std::uint64_t> site_events;
    std::optional<LeafOutcome> merged = step_leaf(
        run, src, prefix_len, &site_events, bucket, allow_merge, side);
    if (merged) {
      src_ = nullptr;
      return std::move(*merged);
    }
    const core::RoundResult r = run.finish();
    if (side != nullptr) side->total_events = run.events_executed();
    src_ = nullptr;
    observe(think, src, r);
    return make_outcome(src, prefix_len, r, std::move(site_events));
  }

  /// Leaf fault containment (DESIGN.md §8): runs the leaf and, if it
  /// throws, retries it ONCE (the retry builds a fresh kernel and copies
  /// the template again, like every round, so nothing of the throwing
  /// run survives into it); a second throw quarantines the schedule —
  /// the stand-in outcome carries the ErrorKind and the forced prefix
  /// (the schedule's identity, from which a reproducing replay token is
  /// minted), with no sites (no expansion) and no mass. `attempts` lets
  /// the fork path charge an already-failed forked execution as the
  /// first try.
  LeafOutcome run_contained(Duration think, std::vector<Choice> prefix,
                            bool stepped, LeafSide* side, int bucket = 0,
                            bool allow_merge = false, int attempts = 2) {
    for (;;) {
      std::vector<Choice> p = prefix;  // retries need the original
      try {
        return stepped ? run_stepped(think, std::move(p), side, bucket,
                                     allow_merge)
                       : run_guided(think, std::move(p));
      } catch (const std::exception& e) {
        src_ = nullptr;  // the throwing run's GuidedSource is gone
        if (side != nullptr) *side = LeafSide{};  // drop partial records
        if (--attempts <= 0) {
          LeafOutcome out;
          out.prefix_ok = true;
          out.error = classify_exception(e);
          out.choices = std::move(prefix);
          return out;
        }
      }
    }
  }

  /// A bucket's policy schedule, wave 0's only kind of leaf: there is no
  /// parent to fork from. Stepped with checkpointing on, it donates
  /// state digests but never probes the table (the policy schedules are
  /// the baseline every child diverges from).
  GroupOutcome run_policy(Duration think, int bucket, bool stepped) {
    GroupOutcome out;
    out.sides.emplace_back();
    out.leaves.push_back(run_contained(think, {}, stepped, &out.sides[0],
                                       bucket, /*allow_merge=*/false));
    out.seeds.push_back(nullptr);
    return out;
  }

  /// Checkpoint/fork execution of one parent's children: replay the
  /// parent ONCE — resuming its retained seed when one exists, instead
  /// of re-simulating the round from the start — and for each child
  /// advance that replay to the event just before the child's divergence
  /// site resolves, deep-clone the whole mid-round state, and run only
  /// the suffix under the child's source. Children arrive in ascending
  /// site order, so the parent replay only ever moves forward; children
  /// already in the store are skipped entirely. With `mint_seeds`, each
  /// executed child also mints a budget-capped seed of the parent at its
  /// boundary, so the child's OWN group in the next wave can resume
  /// there (the caller turns this off in the wave at the preemption
  /// bound, whose leaves are never expanded). If the parent replay
  /// diverges from its recorded sites (deterministic kernels never do),
  /// the remaining children fall back to full stepped replay — every
  /// result field, including divergence accounting, then matches
  /// checkpoint-off.
  GroupOutcome run_group(Duration think, ParentGroup& g, bool mint_seeds) {
    const std::vector<Choice>& choices = g.parent->choices;
    const std::vector<SiteRecord>& sites = g.parent->sites;
    const std::vector<std::uint64_t>& events = g.parent->site_events;
    GroupOutcome out;
    // Every executed child appends exactly one leaf; reserving them all
    // up front keeps the sibling overlay's pointers into `out.leaves`
    // stable for the whole group.
    out.leaves.reserve(static_cast<std::size_t>(g.exec_count()));
    // Arm the sibling overlay for this group; the guard disarms it even
    // if a child's containment fails to absorb a fault, so no stale
    // pointer into a destroyed leaves vector survives the group.
    group_donors_.clear();
    struct OverlayGuard {
      Worker* w;
      ~OverlayGuard() { w->group_donors_.clear(); }
    } overlay_guard{this};
    // Publishes the just-pushed child's donor points to later siblings,
    // mirroring the reduction's conditions: fresh, on-prefix, fault-free
    // leaves donate; merged or quarantined ones never do.
    const auto donate_local = [&](const LeafSide& side) {
      if (!hash_on() || side.merged || out.leaves.empty()) return;
      const LeafOutcome& o = out.leaves.back();
      if (o.error != ErrorKind::none || !o.prefix_ok) return;
      for (const LeafSide::Point& pt : side.points) {
        group_donors_.emplace(
            donor_key(g.bucket, pt.digest),
            DonorPoint{&o, side.total_events, pt.sites_at, pt.event});
      }
    };
    cfg_.victim_think = think;
    std::optional<GuidedSource> psrc;
    std::optional<core::RoundRun> local_parent;
    core::RoundRun* parent = nullptr;
    // Fork boundaries are recorded per site; a parent loaded from a
    // checkpoint-off journal carries none, so its children degrade to
    // full prefix replay (byte-identical outcomes, just slower).
    bool parent_ok = events.size() == sites.size();
    if (parent_ok) {
      try {
        if (g.seed != nullptr) {
          // Adopt the seed: it may have been minted by another worker,
          // whose scheduler clone still routes choices to that worker's
          // slot.
          auto* sched = dynamic_cast<ExploringScheduler*>(
              &g.seed->run->kernel().sched());
          TOCTTOU_CHECK(sched != nullptr,
                        "checkpoint seed lacks an exploring scheduler");
          sched->set_slot(&src_);
          psrc.emplace(choices,
                       std::vector<SiteRecord>(
                           sites.begin(),
                           sites.begin() +
                               static_cast<long>(g.seed->sites_at)));
          src_ = &*psrc;
          parent = g.seed->run.get();
        } else {
          psrc.emplace(choices);
          src_ = &*psrc;
          local_parent.emplace(cfg_, ctx());
          parent = &*local_parent;
        }
      } catch (const std::exception&) {
        // Parent setup threw before any child ran. Fall back below:
        // each child full-replays in containment, so a real per-child
        // fault is charged to the children that actually hit it.
        src_ = nullptr;
        local_parent.reset();
        parent_ok = false;
      }
    }
    std::optional<std::uint64_t> last_boundary;
    for (const ParentGroup::Child& c : g.children) {
      if (!c.run) continue;  // the reduction reads the store
      std::vector<Choice> child_prefix(
          choices.begin(), choices.begin() + static_cast<long>(c.site) + 1);
      child_prefix.back().chosen = c.alt;
      int attempts = 2;
      if (parent_ok) {
        try {
          const std::uint64_t boundary = events[c.site] - 1;
          bool advanced = true;
          while (advanced && parent->events_executed() < boundary) {
            if (!parent->step() || !psrc->ok()) advanced = false;
          }
          // Sites fully resolved strictly before the boundary event;
          // sites [s, c.site] all resolve DURING it and re-resolve in
          // the child.
          std::size_t s = 0;
          while (s < events.size() && events[s] < events[c.site]) ++s;
          if (advanced && psrc->sites().size() != s) advanced = false;
          if (advanced) {
            if (!last_boundary || *last_boundary != boundary) {
              ++out.checkpoints;
              last_boundary = boundary;
            }
            ++out.forks;
            out.prefix_ns_saved +=
                static_cast<std::uint64_t>(parent->now().ns());
            std::unique_ptr<Seed> seed =
                mint_seeds ? retain(*parent, s) : nullptr;
            core::RoundRun child(*parent);
            LeafSide cside;
            GuidedSource csrc(child_prefix,
                              std::vector<SiteRecord>(
                                  sites.begin(),
                                  sites.begin() + static_cast<long>(s)));
            src_ = &csrc;
            std::vector<std::uint64_t> cevents(
                events.begin(), events.begin() + static_cast<long>(s));
            std::optional<LeafOutcome> hit =
                step_leaf(child, csrc, c.site + 1, &cevents, g.bucket,
                          /*allow_merge=*/true, &cside);
            if (hit) {
              src_ = &*psrc;  // back to steering the parent replay
              out.leaves.push_back(std::move(*hit));
              out.seeds.push_back(std::move(seed));
              out.sides.push_back(std::move(cside));
              continue;
            }
            const core::RoundResult r = child.finish();
            cside.total_events = child.events_executed();
            src_ = &*psrc;  // back to steering the parent replay
            observe(think, csrc, r);
            out.leaves.push_back(
                make_outcome(csrc, c.site + 1, r, std::move(cevents)));
            out.seeds.push_back(std::move(seed));
            donate_local(cside);
            out.sides.push_back(std::move(cside));
            continue;
          }
          // Parent replay diverged from its recorded sites: the
          // remaining children fall back to full stepped replay — every
          // result field then matches checkpoint-off.
          parent_ok = false;
          src_ = nullptr;
          local_parent.reset();  // free ctx_ for the full replays
        } catch (const std::exception&) {
          // The fork — or the parent replay feeding it — threw. The
          // parent's mid-round state is suspect: drop it, and charge this
          // child its first attempt (the retry below is its second and
          // last before quarantine).
          parent_ok = false;
          src_ = nullptr;
          local_parent.reset();
          attempts = 1;
        }
      }
      LeafSide fside;
      out.leaves.push_back(run_contained(think, std::move(child_prefix),
                                         /*stepped=*/true, &fside, g.bucket,
                                         /*allow_merge=*/true, attempts));
      out.seeds.push_back(nullptr);
      donate_local(fside);
      out.sides.push_back(std::move(fside));
    }
    src_ = nullptr;
    return out;
  }

  /// Checkpoint-off execution of a group: every child is an independent
  /// full replay of its whole prefix — exactly the historical per-leaf
  /// behavior, just batched under the same work item.
  GroupOutcome run_group_replay(Duration think, const ParentGroup& g) {
    const std::vector<Choice>& choices = g.parent->choices;
    GroupOutcome out;
    out.leaves.reserve(static_cast<std::size_t>(g.exec_count()));
    for (const ParentGroup::Child& c : g.children) {
      if (!c.run) continue;
      std::vector<Choice> child_prefix(
          choices.begin(), choices.begin() + static_cast<long>(c.site) + 1);
      child_prefix.back().chosen = c.alt;
      out.leaves.push_back(run_contained(think, std::move(child_prefix),
                                         /*stepped=*/false, nullptr));
      out.seeds.push_back(nullptr);
      out.sides.emplace_back();
    }
    return out;
  }

  LeafOutcome run_pct(Duration think, const PctParams& pp) {
    for (int attempts = 2;;) {
      PctSource src(pp);
      src_ = &src;
      cfg_.victim_think = think;
      core::RoundResult r;
      try {
        r = core::run_round(cfg_, ctx());
      } catch (const std::exception& e) {
        src_ = nullptr;
        if (--attempts > 0) continue;
        // Quarantined: the choices recorded up to the throw replay the
        // identical deterministic execution, so the minted token
        // reproduces the failure.
        LeafOutcome out;
        out.prefix_ok = true;
        out.error = classify_exception(e);
        out.choices = src.token_choices();
        out.pct_procs = src.procs_seen();
        out.pct_steps = src.steps();
        return out;
      }
      src_ = nullptr;
      LeafOutcome out;
      out.prefix_ok = true;
      out.success = r.success;
      out.window_us = window_us(cfg_, r);
      out.choices = src.token_choices();
      out.pct_procs = src.procs_seen();
      out.pct_steps = src.steps();
      return out;
    }
  }

  std::uint64_t ctx_reuses() const { return ctx_.reuses(); }

 private:
  /// Clones `run` into a checkpoint that resumes after `sites_at`
  /// resolved sites, or returns null when kSeedBudget checkpoints are
  /// already live. The slots are shared by every worker of the pool.
  std::unique_ptr<Seed> retain(const core::RoundRun& run,
                               std::size_t sites_at) const {
    if (seed_slots_->fetch_sub(1, std::memory_order_relaxed) <= 0) {
      seed_slots_->fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    return std::make_unique<Seed>(std::make_unique<core::RoundRun>(run),
                                  sites_at, seed_slots_);
  }

  /// A leaf's victim window, from the round's live tracker: the leaf
  /// keeps no journal. Like RoundResult::window, only rounds with an
  /// attacker report one.
  static std::optional<double> window_us(const core::ScenarioConfig& cfg,
                                         const core::RoundResult& r) {
    if (cfg.attacker == core::AttackerKind::none) return std::nullopt;
    if (!r.window_tracker.found()) return std::nullopt;
    return r.window_tracker.length().us();
  }

  /// The prefix replays choices an earlier run actually made, so a
  /// deterministic kernel must reach every forced site with matching
  /// shape. Anything else means nondeterminism crept in.
  LeafOutcome make_outcome(const GuidedSource& src, std::size_t prefix_len,
                           const core::RoundResult& r,
                           std::vector<std::uint64_t> site_events) const {
    LeafOutcome out;
    out.prefix_ok = src.ok() && src.consumed() == prefix_len;
    out.success = r.success;
    out.window_us = window_us(cfg_, r);
    out.sites = src.sites();
    out.choices = src.token_choices();
    out.site_events = std::move(site_events);
    return out;
  }

  /// Stamp the current event count onto every site the last step
  /// resolved (several sites can resolve inside one event).
  static void note_sites(const GuidedSource& src, const core::RoundRun& run,
                         std::vector<std::uint64_t>* events) {
    while (events->size() < src.sites().size()) {
      events->push_back(run.events_executed());
    }
  }

  /// Steps `run` under `src` until the round is over, stamping site
  /// events. With state hashing, also digests the full simulation state
  /// at every candidate donor point — the event where the forced prefix
  /// is consumed, and every later event that resolved new sites — and,
  /// when `allow_merge`, probes the frozen donor table at each digest.
  /// On a match the leaf stops executing and the donor's tail is
  /// provably this leaf's future (equal hashable digests step
  /// identically; see core::RoundRun::hash_state): returns the
  /// synthesized outcome with side->merged set. Returns nullopt when the
  /// run completed normally (caller finishes and builds the outcome).
  std::optional<LeafOutcome> step_leaf(core::RoundRun& run,
                                       GuidedSource& src,
                                       std::size_t prefix_len,
                                       std::vector<std::uint64_t>* events,
                                       int bucket, bool allow_merge,
                                       LeafSide* side) {
    const bool hashing = side != nullptr && hash_on();
    bool past = src.ok() && src.consumed() >= prefix_len;
    std::size_t seen = src.sites().size();
    while (run.step()) {
      note_sites(src, run, events);
      if (!hashing || !src.ok()) continue;
      const bool now_past = src.consumed() >= prefix_len;
      const bool fresh_site = src.sites().size() > seen;
      const bool record = (now_past && !past) || (past && fresh_site);
      past = now_past;
      seen = src.sites().size();
      if (!record) continue;
      StateHasher h;
      run.hash_state(h);
      if (!h.hashable()) continue;
      const StateHasher::Digest d = h.digest();
      if (allow_merge) {
        const std::string key = donor_key(bucket, d);
        const auto merge_with = [&](const DonorPoint& dp) {
          side->merged = true;
          side->total_events =
              run.events_executed() + (dp.total_events - dp.event);
          return synthesize_merge(src, run, dp, *events);
        };
        const DonorPoint* dp = store_->donor(key);
        if (dp != nullptr && merge_fits_budget(run, *dp)) {
          return merge_with(*dp);
        }
        const auto f = group_donors_.find(key);
        if (f != group_donors_.end() && merge_fits_budget(run, f->second)) {
          return merge_with(f->second);
        }
      }
      side->points.push_back(
          LeafSide::Point{d, run.events_executed(), src.sites().size()});
    }
    return std::nullopt;
  }

  /// A merged leaf charges the donor's remaining events without running
  /// them; refuse the merge if that synthetic total could overrun the
  /// step budget. Event-count stamps of state-equal runs can drift by
  /// the number of pending stale timer events (bounded by the process
  /// count — a stale pop is a no-op that only advances the counter), so
  /// the +64 margin keeps the refusal conservative.
  bool merge_fits_budget(const core::RoundRun& run,
                         const DonorPoint& dp) const {
    if (cfg_.step_budget == 0) return true;
    const std::uint64_t tail = dp.total_events - dp.event;
    return run.events_executed() + tail + 64 <= cfg_.step_budget;
  }

  /// Builds the outcome of a leaf that reached a donor's state: its own
  /// resolved sites and choices, extended by the donor's tail. Success
  /// and window are the donor's EXACTLY (both are functions of the
  /// hashed state). Donor site-event stamps shift by the event-count
  /// delta between the two runs; stamps can drift by pending stale
  /// events, which at worst degrades a later fork of this leaf to full
  /// replay (the fork path verifies resolved-site counts against its
  /// boundary and falls back — byte-identical outcomes, just slower).
  LeafOutcome synthesize_merge(
      const GuidedSource& src, const core::RoundRun& run,
      const DonorPoint& dp,
      const std::vector<std::uint64_t>& site_events) const {
    const LeafOutcome& rec = *dp.rec;
    LeafOutcome out;
    out.prefix_ok = true;
    out.success = rec.success;
    out.window_us = rec.window_us;
    out.sites = src.sites();
    out.choices = src.token_choices();
    out.site_events = site_events;
    const std::int64_t delta =
        static_cast<std::int64_t>(run.events_executed()) -
        static_cast<std::int64_t>(dp.event);
    for (std::size_t k = dp.sites_at; k < rec.sites.size(); ++k) {
      out.sites.push_back(rec.sites[k]);
      out.choices.push_back(rec.choices[k]);
      out.site_events.push_back(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(rec.site_events[k]) + delta));
    }
    return out;
  }

  void observe(Duration think, const GuidedSource& src,
               const core::RoundResult& r) const {
    if (!ecfg_->leaf_observer) return;
    ScheduleToken tok;
    tok.fingerprint = fingerprint_;
    tok.seed = cfg_.seed;
    tok.think_ns = think.ns();
    tok.choices = src.token_choices();
    ecfg_->leaf_observer(tok.serialize(), r);
  }

  core::RoundContext* ctx() { return &ctx_; }

  core::ScenarioConfig cfg_;
  const ExploreConfig* ecfg_;
  std::uint32_t fingerprint_;
  /// The explore-level outcome store, read lock-free during batch
  /// execution (frozen then; mutated only between batches).
  const OutcomeStore* store_;
  /// The pool's checkpoint budget, claimed concurrently by every worker.
  std::atomic<int>* seed_slots_;
  /// Per-group sibling overlay: donor points of EARLIER children of the
  /// group this worker is currently running, visible to later children
  /// before the serial reduction publishes them to the store. A group
  /// always runs whole in one worker in canonical child order, so the
  /// overlay — like the frozen store — is jobs-invariant. Entries point
  /// into the group's leaves vector, reserved up front so they stay put.
  std::unordered_map<std::string, DonorPoint> group_donors_;
  ChoiceSource* src_ = nullptr;
  core::RoundContext ctx_;
};

/// Work-stealing pool over canonically indexed leaves. Each worker owns
/// a contiguous chunk of the index range and drains it through an atomic
/// cursor; a worker that runs dry steals from the other chunks' cursors.
/// Outcomes are keyed by leaf index, so WHO ran a leaf never shows —
/// only the steal counter (a throughput metric outside the determinism
/// contract) depends on timing.
class WorkerPool {
 public:
  WorkerPool(const core::ScenarioConfig& base, const ExploreConfig& ecfg,
             std::uint32_t fingerprint, const OutcomeStore* store, int jobs) {
    TOCTTOU_CHECK(jobs >= 1, "worker pool needs at least one worker");
    workers_.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers_.push_back(std::make_unique<Worker>(base, ecfg, fingerprint,
                                                  store, &seed_slots_));
    }
  }

  /// Runs leaf(worker, i) for every i in [0, n), fanning out across the
  /// pool (inline on the calling thread when the pool has one worker).
  template <typename Fn>
  void run(int n, Fn&& leaf) {
    if (n <= 0) return;
    const int w_count = static_cast<int>(workers_.size());
    if (w_count == 1 || n == 1) {
      for (int i = 0; i < n; ++i) leaf(*workers_[0], i);
      return;
    }
    std::vector<std::atomic<int>> cursors(static_cast<std::size_t>(w_count));
    std::vector<int> ends(static_cast<std::size_t>(w_count));
    for (int w = 0; w < w_count; ++w) {
      cursors[static_cast<std::size_t>(w)].store(w * n / w_count,
                                                 std::memory_order_relaxed);
      ends[static_cast<std::size_t>(w)] = (w + 1) * n / w_count;
    }
    std::atomic<std::uint64_t> steals{0};
    const auto work = [&](int w) {
      std::uint64_t stolen = 0;
      for (int off = 0; off < w_count; ++off) {
        const int victim = (w + off) % w_count;
        auto& cursor = cursors[static_cast<std::size_t>(victim)];
        const int end = ends[static_cast<std::size_t>(victim)];
        for (;;) {
          const int i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= end) break;
          leaf(*workers_[static_cast<std::size_t>(w)], i);
          if (off != 0) ++stolen;
        }
      }
      if (stolen > 0) steals.fetch_add(stolen, std::memory_order_relaxed);
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(w_count));
    for (int w = 0; w < w_count; ++w) threads.emplace_back(work, w);
    for (auto& t : threads) t.join();
    steals_ += steals.load(std::memory_order_relaxed);
  }

  std::uint64_t steals() const { return steals_; }

  std::uint64_t ctx_reuses() const {
    std::uint64_t total = 0;
    for (const auto& w : workers_) total += w->ctx_reuses();
    return total;
  }

 private:
  // Declared first so it outlives every checkpoint the workers mint.
  std::atomic<int> seed_slots_{kSeedBudget};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t steals_ = 0;
};

/// Executed leaves per parallel batch. Waves can reach the schedule cap
/// in size; batching bounds how many LeafOutcomes (with their site
/// records) are alive at once without touching the canonical reduction
/// order. The donor table is frozen while a batch executes and refilled
/// during the serial reduction between batches, so the constant also
/// sets how quickly state-hash donations become visible to siblings:
/// small enough that most leaves see their level-mates' states, large
/// enough to keep every worker busy. Results are identical for any
/// fixed value — only throughput and the merge rate move.
constexpr int kWaveBatch = 4;

/// Canonical journal key of PCT schedule i: "P" + 4 index bytes. Never
/// collides with an exhaustive key (those are 4 bucket bytes plus a
/// multiple of 5 — length 5 only ever means PCT).
std::string pct_key(int i) {
  std::string key(1, 'P');
  for (int b = 0; b < 4; ++b) {
    key.push_back(static_cast<char>((static_cast<unsigned>(i) >> (8 * b)) &
                                    0xffu));
  }
  return key;
}

ExploreResult explore_pct(const core::ScenarioConfig& base,
                          const ExploreConfig& ecfg, std::uint32_t fingerprint,
                          WorkerPool* pool, SweepJournal* journal,
                          OutcomeStore* store) {
  ExploreResult res;
  const auto [lo, hi] = core::victim_think_range(base);
  const auto think_for = [&](int i) {
    const std::uint64_t stream =
        mix_seed(ecfg.pct_seed, static_cast<std::uint64_t>(i));
    Rng draw(stream);
    return base.victim_think ? *base.victim_think
                             : draw.uniform_duration(lo, hi);
  };
  std::vector<std::string> keys;
  std::vector<int> todo;
  std::vector<LeafOutcome> out;
  std::vector<std::pair<std::string, const LeafRecord*>> fresh;
  for (int begin = 0; begin < ecfg.pct_schedules; begin += kWaveBatch) {
    if (ecfg.should_stop && ecfg.should_stop()) {
      res.interrupted = true;
      break;
    }
    const int count = std::min(kWaveBatch, ecfg.pct_schedules - begin);
    keys.assign(static_cast<std::size_t>(count), {});
    todo.clear();
    for (int i = 0; i < count; ++i) {
      keys[static_cast<std::size_t>(i)] = pct_key(begin + i);
      if (store->contains(keys[static_cast<std::size_t>(i)])) continue;
      todo.push_back(i);
    }
    out.assign(todo.size(), {});
    pool->run(static_cast<int>(todo.size()), [&](Worker& w, int t) {
      const int sched_i = begin + todo[static_cast<std::size_t>(t)];
      const std::uint64_t stream =
          mix_seed(ecfg.pct_seed, static_cast<std::uint64_t>(sched_i));
      PctParams pp;
      pp.seed = mix_seed(stream, 0x9C7);
      pp.depth = ecfg.pct_depth;
      pp.expected_steps = kPctExpectedSteps;
      out[static_cast<std::size_t>(t)] = w.run_pct(think_for(sched_i), pp);
    });
    // Serial reduction in schedule-index order: identical arithmetic for
    // any worker count, fresh or resumed.
    std::size_t t = 0;
    for (int i = 0; i < count; ++i) {
      const std::string& key = keys[static_cast<std::size_t>(i)];
      const LeafOutcome* o;
      if (t < todo.size() && todo[t] == i) {
        o = &store->intern(key, std::move(out[t]));
        if (journal != nullptr) fresh.emplace_back(key, o);
        ++t;
      } else {
        o = store->find(key);
      }
      ++res.schedules;
      ++res.rounds_executed;
      if (o->error != ErrorKind::none) {
        ++res.quarantined;
        if (static_cast<int>(res.quarantine.size()) < kMaxQuarantineTokens) {
          ScheduleToken tok;
          tok.fingerprint = fingerprint;
          tok.seed = base.seed;
          tok.think_ns = think_for(begin + i).ns();
          tok.choices = o->choices;
          res.quarantine.push_back(
              QuarantineRecord{tok.serialize(), o->error, -1});
        }
        continue;
      }
      res.pct_procs = std::max(res.pct_procs, o->pct_procs);
      res.pct_max_steps = std::max(res.pct_max_steps, o->pct_steps);
      if (o->window_us) res.window_us.add(*o->window_us);
      if (o->success) {
        ++res.successes;
        if (res.schedules_to_first_hit < 0) {
          res.schedules_to_first_hit = res.schedules;
        }
        if (!res.witness) {
          ScheduleToken tok;
          tok.fingerprint = fingerprint;
          tok.seed = base.seed;
          tok.think_ns = think_for(begin + i).ns();
          tok.choices = o->choices;
          res.witness = std::move(tok);
          res.witness_divergences = -1;  // not meaningful for PCT
        }
      }
    }
    if (journal != nullptr) {
      journal->append_batch(fresh);
      fresh.clear();
    }
  }
  if (res.pct_procs > 0 && res.pct_max_steps > 0) {
    res.pct_bound = 1.0 / (static_cast<double>(res.pct_procs) *
                           std::pow(static_cast<double>(res.pct_max_steps),
                                    ecfg.pct_depth - 1));
  }
  return res;
}

/// The preemption-bounded enumeration as ONE pass over divergence
/// waves: wave d holds every schedule with exactly d divergences, in a
/// CANONICAL order — wave 0 is the per-bucket policy schedules in bucket
/// order; each later wave appends alternatives in (parent index, choice
/// site, option) order, grouped under their parent so the shared prefix
/// is paid once (checkpoint fork) or per child (full replay), with
/// identical outcomes. Leaves execute in parallel keyed by canonical
/// index and reduce serially in that order, so counters, quadrature
/// sums, RunningStats accumulation order, cap truncation, the witness,
/// and schedules_to_first_hit are all independent of worker count and
/// completion order — and of the checkpoint flag.
///
/// A bound-d sweep enumerates exactly waves 0..d, so when wave d closes
/// the result already is the bound-d result. The pass stops at the first
/// wave that reaches the preemption bound, the schedule cap or the round
/// budget, leaves nothing to expand, or sees a stop request. Every
/// schedule executes at most once; only those loaded from a resumed
/// journal reduce from the store.
ExploreResult explore_exhaustive(const core::ScenarioConfig& base,
                                 const ExploreConfig& ecfg,
                                 std::uint32_t fingerprint, WorkerPool* pool,
                                 SweepJournal* journal, OutcomeStore* store) {
  ExploreResult res;
  const std::vector<ThinkBucket> buckets =
      make_buckets(base, ecfg.think_buckets);
  const bool ckpt = ecfg.checkpoint;
  // Checkpoint/fork accounting (all zero when checkpointing is off).
  std::uint64_t checkpoints = 0;
  std::uint64_t forks = 0;
  std::uint64_t prefix_ns_saved = 0;
  // Parent groups that fell back from checkpoint-fork to prefix replay
  // (seed crowded out by the budget, or a journaled parent without fork
  // boundaries).
  std::uint64_t degraded = 0;
  // State-hash accounting: leaves synthesized from a donor match vs
  // fresh completed executions (DESIGN.md §10).
  std::uint64_t hash_merges = 0;
  std::uint64_t leaves_executed = 0;
  // Schedules reduced from the store: resumed leaves, plus every
  // schedule of waves 0..d once per deeper bound the sweep reaches (a
  // bound-by-bound enumeration reduces them again from the store).
  std::uint64_t cache_hits = 0;
  std::string witness_key;  // serialized witness, for the lexicographic tie
  bool capped = false;
  int level = 0;
  // Past the preemption bound a wave's leaves are not expanded: their
  // alternatives are only counted (bound_cutoffs).
  bool expand = false;
  // Wave 0: one group per bucket whose one child is the policy schedule.
  std::vector<ParentGroup> wave(buckets.size());
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    wave[b].bucket = static_cast<int>(b);
    wave[b].children.push_back(
        {0, 0, !store->contains(child_key(wave[b], {}))});
  }
  std::vector<ParentGroup> next;
  std::vector<GroupOutcome> out;
  // Executed leaves of the batch in flight, journaled after the batch's
  // reduction (pointers are interned store entries — stable).
  std::vector<std::pair<std::string, const LeafRecord*>> fresh;

  // Serial reduction + sibling expansion for one leaf of wave `level`,
  // called strictly in canonical leaf order. A leaf with children becomes
  // a ParentGroup of the next wave and hands it `seed`, the checkpoint
  // minted at the leaf's own fork boundary. `side` is the executing
  // worker's side data (null for a resumed leaf: nothing executed).
  const auto reduce_leaf = [&](int bucket, std::size_t prefix_len,
                               const LeafOutcome& o, const LeafSide* side,
                               std::unique_ptr<Seed> seed) {
    const ThinkBucket& bkt = buckets[static_cast<std::size_t>(bucket)];
    ++res.schedules;
    if (o.error != ErrorKind::none) {
      // Quarantined: enumerated and counted, but it carries no mass, no
      // window sample, and no children. The capped token list follows
      // canonical order, so it is jobs-invariant and resume-stable.
      ++res.quarantined;
      if (static_cast<int>(res.quarantine.size()) < kMaxQuarantineTokens) {
        ScheduleToken tok;
        tok.fingerprint = fingerprint;
        tok.seed = base.seed;
        tok.think_ns = bkt.think.ns();
        tok.choices = o.choices;
        res.quarantine.push_back(
            QuarantineRecord{tok.serialize(), o.error, level});
      }
      return;
    }
    if (!o.prefix_ok) {
      ++res.divergence_errors;
      return;
    }
    if (side != nullptr) {
      if (side->merged) {
        ++hash_merges;
      } else {
        ++leaves_executed;
        store->donate(bucket, *side, o);
      }
    }
    if (level == 0) {
      ++res.policy_schedules;
      res.total_mass += bkt.mass;
      if (o.success) res.exact_success += bkt.mass;
      if (o.window_us) res.window_us.add(*o.window_us);
    }
    if (o.success) {
      ++res.successes;
      if (res.schedules_to_first_hit < 0) {
        res.schedules_to_first_hit = res.schedules;
      }
      // Witness: fewest divergences, then the lexicographically least
      // serialized token — an order-independent total order. Waves
      // ascend in divergence count, so only the first wave with a
      // success ever competes.
      if (!res.witness || level == res.witness_divergences) {
        ScheduleToken tok;
        tok.fingerprint = fingerprint;
        tok.seed = base.seed;
        tok.think_ns = bkt.think.ns();
        tok.choices = o.choices;
        std::string wkey = tok.serialize();
        if (!res.witness || wkey < witness_key) {
          res.witness = std::move(tok);
          witness_key = std::move(wkey);
          res.witness_divergences = level;
        }
      }
    }
    // Expand siblings at every site this run resolved beyond the forced
    // prefix (earlier sites were expanded by ancestors). The child will
    // replay this run's choices up to site j, then force the
    // alternative. Each alternative is one schedule of the next wave,
    // which a sweep bounded here cuts off.
    ParentGroup g;
    g.bucket = bucket;
    bool any_run = false;
    for (std::size_t j = prefix_len; j < o.sites.size(); ++j) {
      const SiteRecord& site = o.sites[j];
      for (int opt = 0; opt < static_cast<int>(site.choice.n); ++opt) {
        if (opt == static_cast<int>(site.choice.chosen)) continue;
        ++res.bound_cutoffs;
        if (!expand) continue;
        Choice alt = o.choices[j];
        alt.chosen = static_cast<std::uint16_t>(opt);
        const bool run =
            !store->contains(schedule_key(bucket, o.choices, j, &alt));
        any_run = any_run || run;
        g.children.push_back({j, static_cast<std::uint16_t>(opt), run});
      }
    }
    if (g.children.empty()) return;
    g.parent = &o;
    // If every child is already in the store, no group will fork from
    // the checkpoint: it is released here.
    if (any_run) g.seed = std::move(seed);
    next.push_back(std::move(g));
  };

  for (;; ++level) {
    res.bound_reached = level;
    res.bound_cutoffs = 0;
    expand = ecfg.preemption_bound < 0 || level < ecfg.preemption_bound;
    // Seeds minted at the preemption bound could never be consumed.
    const bool mint_seeds = ckpt && expand;
    // Schedule cap: truncate the wave's LEAVES in canonical order. The
    // dropped tail (and all its descendants) is exactly what a serial
    // enumerator hitting the cap would never reach.
    const int allowed = ecfg.max_schedules - res.schedules;
    int total = 0;
    for (std::size_t gi = 0; gi < wave.size(); ++gi) {
      const int n = static_cast<int>(wave[gi].children.size());
      if (total + n > allowed) {
        wave[gi].children.resize(
            static_cast<std::size_t>(std::max(allowed - total, 0)));
        wave.resize(wave[gi].children.empty() ? gi : gi + 1);
        capped = true;
        break;
      }
      total += n;
    }
    // Batch groups so at most ~kWaveBatch executed leaf outcomes are
    // alive at once (a single oversized group still runs whole; groups
    // whose children are all in the store ride along for free).
    std::size_t gbegin = 0;
    while (gbegin < wave.size()) {
      if (ecfg.should_stop && ecfg.should_stop()) {
        // Graceful stop: everything reduced so far is a valid canonical
        // prefix; the journal (when active) resumes exactly here.
        res.interrupted = true;
        break;
      }
      std::size_t gend = gbegin;
      int batch_leaves = 0;
      while (gend < wave.size()) {
        const int n = wave[gend].exec_count();
        if (gend > gbegin && batch_leaves + n > kWaveBatch) break;
        batch_leaves += n;
        ++gend;
      }
      // Graceful degradation accounting: groups whose children pay the
      // full prefix replay instead of forking — the parent's seed was
      // crowded out by the budget (wave-1 parents never mint seeds, so
      // they are the baseline, not degradation), or a journaled parent
      // resumed without fork boundaries.
      if (ckpt && level >= 1) {
        for (std::size_t i = gbegin; i < gend; ++i) {
          const ParentGroup& g = wave[i];
          if (g.exec_count() == 0) continue;
          if (g.parent->site_events.size() != g.parent->sites.size() ||
              (level >= 2 && g.seed == nullptr)) {
            ++degraded;
          }
        }
      }
      out.clear();
      out.resize(gend - gbegin);
      pool->run(static_cast<int>(gend - gbegin), [&](Worker& w, int i) {
        ParentGroup& g = wave[gbegin + static_cast<std::size_t>(i)];
        if (g.exec_count() == 0) return;  // every child is in the store
        const Duration think =
            buckets[static_cast<std::size_t>(g.bucket)].think;
        out[static_cast<std::size_t>(i)] =
            g.parent == nullptr ? w.run_policy(think, g.bucket, ckpt)
            : ckpt              ? w.run_group(think, g, mint_seeds)
                                : w.run_group_replay(think, g);
      });
      for (std::size_t i = 0; i < gend - gbegin; ++i) {
        GroupOutcome& go = out[i];
        const ParentGroup& g = wave[gbegin + i];
        checkpoints += go.checkpoints;
        forks += go.forks;
        prefix_ns_saved += go.prefix_ns_saved;
        std::size_t x = 0;  // next executed leaf of the group
        for (const ParentGroup::Child& c : g.children) {
          const std::string key = child_key(g, c);
          const std::size_t prefix_len = g.parent != nullptr ? c.site + 1 : 0;
          if (!c.run) {
            ++cache_hits;
            reduce_leaf(g.bucket, prefix_len, *store->find(key), nullptr,
                        nullptr);
            continue;
          }
          const LeafOutcome& o = store->intern(key, std::move(go.leaves[x]));
          if (journal != nullptr) fresh.emplace_back(key, &o);
          reduce_leaf(g.bucket, prefix_len, o, &go.sides[x],
                      std::move(go.seeds[x]));
          ++x;
        }
      }
      if (journal != nullptr) {
        journal->append_batch(fresh);
        fresh.clear();
      }
      gbegin = gend;
    }
    // The wave closed: a bound-`level` sweep ends here, and its
    // schedules count as rounds executed.
    res.rounds_executed += res.schedules;
    // "complete" = every schedule within the final bound was enumerated
    // (bounded completeness, as in context-bounded model checking). With
    // nothing to expand the bound covers the whole space; on scenarios
    // where every divergence exposes fresh wakeup sites the space is
    // unbounded in depth and the preemption bound / round budget is the
    // only exit.
    if (res.interrupted || capped || next.empty() ||
        res.rounds_executed >= ecfg.max_schedules) {
      break;
    }
    // Going deeper: a bound-by-bound enumeration would reduce every
    // schedule so far again from the store.
    cache_hits += static_cast<std::uint64_t>(res.schedules);
    wave = std::move(next);
    next.clear();
  }
  res.complete = !capped && !res.interrupted;
  // Checkpoint accounting — deterministic (jobs-invariant) but only
  // emitted when checkpointing is on, keeping the off-mode metrics
  // byte-identical to a build without the fork machinery.
  // explore.degraded_groups is the exception: like explore.steals it
  // depends on timing (seed-slot contention), so it sits outside the
  // jobs-invariance contract.
  if (ckpt) {
    res.metrics.count("explore.checkpoints", checkpoints);
    res.metrics.count("explore.forks", forks);
    res.metrics.count("explore.prefix_ns_saved", prefix_ns_saved);
    res.metrics.count("explore.cache_hits", cache_hits);
    res.metrics.count("explore.degraded_groups", degraded);
  }
  // State-hash accounting: deterministic (jobs-invariant), scoped to
  // fresh executions, and emitted only when the feature is on so the
  // off-mode metrics stay byte-identical to a build without it. With
  // checkpointing off no leaf is stepped, so the counters honestly
  // report zero merges there.
  if (ecfg.state_hash) {
    res.metrics.count("explore.hash_merges", hash_merges);
    res.metrics.count("explore.leaves_executed", leaves_executed);
  }
  return res;
}

}  // namespace

const char* to_string(ExploreMode m) {
  switch (m) {
    case ExploreMode::exhaustive:
      return "exhaustive";
    case ExploreMode::pct:
      return "pct";
  }
  return "?";
}

core::ScenarioConfig canonical_explore_config(core::ScenarioConfig cfg) {
  cfg.profile.machine.noise = sim::NoiseModel::none();
  cfg.profile.machine.background.enabled = false;
  cfg.background_load = false;
  cfg.faults = sim::FaultPlan{};
  cfg.scheduler_factory = nullptr;
  return cfg;
}

ExploreResult explore(const core::ScenarioConfig& cfg,
                      const ExploreConfig& ecfg) {
  core::ScenarioConfig base = canonical_explore_config(cfg);
  // A leaf's outcome reads its window from the round's live tracker; a
  // journal is recorded only for an observer that reads it (a detect
  // sweep records one regardless: the detector replays it).
  base.record_journal = static_cast<bool>(ecfg.leaf_observer);
  base.record_events = false;
  // Worker rounds run concurrently; the wall profile is serial-only.
  base.wall_profile = nullptr;
  const std::uint32_t fingerprint = core::scenario_fingerprint(base);

  int jobs = ecfg.jobs > 0
                 ? ecfg.jobs
                 : static_cast<int>(std::thread::hardware_concurrency());
  jobs = std::max(jobs, 1);
  OutcomeStore store;
  WorkerPool pool(base, ecfg, fingerprint, &store, jobs);

  // Durable progress: open (or resume) the sweep journal before any
  // round runs. The header pins everything that shapes the schedule
  // space — NOT jobs or the checkpoint flag, which the determinism
  // contract keeps invisible in outcomes.
  std::unique_ptr<SweepJournal> journal;
  std::vector<std::pair<std::string, LeafRecord>> loaded;
  if (!ecfg.journal_path.empty()) {
    SweepJournal::Meta meta;
    meta.fingerprint = fingerprint;
    meta.seed = base.seed;
    meta.mode = static_cast<std::uint8_t>(ecfg.mode);
    meta.think_buckets = ecfg.think_buckets;
    meta.preemption_bound = ecfg.preemption_bound;
    meta.max_schedules = ecfg.max_schedules;
    meta.think_ns = base.victim_think ? base.victim_think->ns() : INT64_MIN;
    meta.step_budget = base.step_budget;
    meta.pct_depth = ecfg.pct_depth;
    meta.pct_schedules = ecfg.pct_schedules;
    meta.pct_expected_steps = kPctExpectedSteps;
    meta.pct_seed = ecfg.pct_seed;
    std::string err;
    journal = ecfg.resume
                  ? SweepJournal::resume(ecfg.journal_path, meta, &loaded,
                                         &err)
                  : SweepJournal::create(ecfg.journal_path, meta, &err);
    if (journal == nullptr) {
      ExploreResult res;
      res.mode = ecfg.mode;
      res.journal_error = err;
      return res;
    }
  }

  // Resume: intern the journal's leaves (the first record of a key
  // wins), so every journaled schedule reduces from its stored outcome —
  // in canonical order, with the same arithmetic — instead of
  // re-executing.
  for (auto& [key, rec] : loaded) {
    if (!store.contains(key)) store.intern(key, std::move(rec));
  }

  ExploreResult res =
      ecfg.mode == ExploreMode::pct
          ? explore_pct(base, ecfg, fingerprint, &pool, journal.get(), &store)
          : explore_exhaustive(base, ecfg, fingerprint, &pool, journal.get(),
                               &store);
  res.mode = ecfg.mode;
  res.journal_leaves_loaded = static_cast<int>(loaded.size());
  if (res.interrupted && journal != nullptr && journal->ok()) {
    journal->append_stop(static_cast<std::uint64_t>(res.rounds_executed));
  }
  if (journal != nullptr && !journal->ok()) {
    res.journal_error = journal->error();
  }
  res.metrics.count("explore.leaves",
                    static_cast<std::uint64_t>(res.rounds_executed));
  res.metrics.count("explore.steals", pool.steals());
  res.metrics.count("explore.ctx_reuses", pool.ctx_reuses());
  if (res.quarantined > 0) {
    res.metrics.count("explore.quarantined",
                      static_cast<std::uint64_t>(res.quarantined));
  }
  return res;
}

}  // namespace tocttou::explore
