// Soundness of canonical state hashing (DESIGN.md §10): a merge is only
// legal if equal digests really imply equal futures. The fuzz here
// enumerates a few dozen schedules of the uniprocessor vi scenario,
// digests the full simulation state at every resolved choice site, and
// for every cross-schedule digest collision CONTINUES both runs under
// the pure policy — the continuations must agree on every observable
// the explorer synthesizes from a donor (success, end time, the entire
// remaining site/choice trace). A single disagreement would mean the
// hash dropped a future-relevant bit of state.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tocttou/common/state_hash.h"
#include "tocttou/core/harness.h"
#include "tocttou/core/round_run.h"
#include "tocttou/explore/choice_source.h"
#include "tocttou/explore/explorer.h"
#include "tocttou/explore/exploring_scheduler.h"
#include "tocttou/fs/vfs.h"
#include "tocttou/programs/testbeds.h"

namespace tocttou::explore {
namespace {

core::ScenarioConfig up_vi(Duration think, std::uint64_t seed,
                           ChoiceSource* const* slot) {
  core::ScenarioConfig c;
  c.profile = programs::testbed_uniprocessor_xeon();
  c.victim = core::VictimKind::vi;
  c.attacker = core::AttackerKind::naive;
  c.file_bytes = 4096;
  c.seed = seed;
  c = canonical_explore_config(c);
  c.victim_think = think;
  c.scheduler_factory = [slot](const core::ScenarioConfig& sc) {
    return std::make_unique<ExploringScheduler>(core::default_sched_params(sc),
                                                slot);
  };
  return c;
}

/// Everything a merged leaf inherits from its donor, harvested by
/// running a state to completion under the pure policy.
struct Continuation {
  bool success = false;
  bool victim_completed = false;
  bool attacker_finished = false;
  int attacker_iterations = 0;
  std::int64_t end_ns = 0;
  /// The remaining site trace: (kind, n, chosen) per site.
  std::vector<std::tuple<char, int, int>> sites;
};

Continuation continue_under_policy(const core::RoundRun& at) {
  core::RoundRun run(at);  // deep clone; the held point stays reusable
  ChoiceSource* slot = nullptr;
  GuidedSource cont({});
  slot = &cont;
  auto* sched = dynamic_cast<ExploringScheduler*>(&run.kernel().sched());
  if (sched == nullptr) throw std::runtime_error("missing exploring sched");
  sched->set_slot(&slot);
  while (run.step()) {
  }
  const core::RoundResult r = run.finish();
  Continuation c;
  c.success = r.success;
  c.victim_completed = r.victim_completed;
  c.attacker_finished = r.attacker_finished;
  c.attacker_iterations = r.attacker_iterations;
  c.end_ns = run.now().ns();
  for (const SiteRecord& s : cont.sites()) {
    c.sites.emplace_back(static_cast<char>(s.choice.kind),
                         static_cast<int>(s.choice.n),
                         static_cast<int>(s.choice.chosen));
  }
  return c;
}

void expect_same_continuation(const Continuation& a, const Continuation& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.victim_completed, b.victim_completed);
  EXPECT_EQ(a.attacker_finished, b.attacker_finished);
  EXPECT_EQ(a.attacker_iterations, b.attacker_iterations);
  EXPECT_EQ(a.end_ns, b.end_ns);
  EXPECT_EQ(a.sites, b.sites);
}

TEST(StateHashSoundnessTest, EqualDigestImpliesIdenticalContinuation) {
  // A held state: where a digest was first seen. Schedules within one
  // think/seed stratum share a state space; strata never share digests
  // (the victim think time differs), so the map key carries the stratum.
  struct Held {
    std::unique_ptr<core::RoundRun> run;
  };
  struct Job {
    Duration think;
    std::uint64_t seed;
    std::vector<Choice> prefix;
    int divergences = 0;
  };

  int executed = 0, collisions = 0, verified = 0;
  constexpr int kMaxSchedules = 40;
  constexpr int kMaxDivergences = 2;
  constexpr int kMaxVerified = 24;

  std::map<std::tuple<std::int64_t, std::uint64_t, std::uint64_t,
                      std::uint64_t>,
           Held>
      seen;
  std::deque<Job> todo;
  for (std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{11}}) {
    core::ScenarioConfig probe = up_vi(Duration::zero(), seed, nullptr);
    const auto [lo, hi] = core::victim_think_range(probe);
    todo.push_back(Job{lo + (hi - lo) / 4, seed, {}, 0});
    todo.push_back(Job{lo + (hi - lo) * 3 / 4, seed, {}, 0});
  }

  while (!todo.empty() && executed < kMaxSchedules) {
    const Job job = std::move(todo.front());
    todo.pop_front();
    ++executed;

    ChoiceSource* slot = nullptr;
    GuidedSource src(job.prefix);
    slot = &src;
    core::RoundRun run(up_vi(job.think, job.seed, &slot), nullptr);
    std::size_t sites_seen = 0;
    while (run.step()) {
      if (!src.ok() || src.sites().size() == sites_seen) continue;
      sites_seen = src.sites().size();
      StateHasher h;
      run.hash_state(h);
      if (!h.hashable()) continue;
      const StateHasher::Digest d = h.digest();
      const auto key = std::make_tuple(job.think.ns(), job.seed, d.lo, d.hi);
      const auto it = seen.find(key);
      if (it == seen.end()) {
        seen.emplace(key,
                     Held{std::make_unique<core::RoundRun>(run)});
        continue;
      }
      ++collisions;
      if (verified >= kMaxVerified) continue;
      ++verified;
      SCOPED_TRACE("think=" + std::to_string(job.think.ns()) + " seed=" +
                   std::to_string(job.seed) + " site=" +
                   std::to_string(sites_seen));
      expect_same_continuation(continue_under_policy(*it->second.run),
                               continue_under_policy(run));
    }
    if (!src.ok()) continue;
    const core::RoundResult r = run.finish();
    (void)r;
    if (job.divergences >= kMaxDivergences) continue;
    const std::vector<Choice> choices = src.token_choices();
    for (std::size_t j = job.prefix.size(); j < choices.size(); ++j) {
      for (std::uint16_t opt = 0; opt < choices[j].n; ++opt) {
        if (opt == choices[j].chosen) continue;
        std::vector<Choice> child(choices.begin(),
                                  choices.begin() + static_cast<long>(j) + 1);
        child.back().chosen = opt;
        todo.push_back(
            Job{job.think, job.seed, std::move(child), job.divergences + 1});
      }
    }
  }

  // The census behind the explorer's merge rate says this space is rich
  // in revisited states; zero collisions would make the test vacuous.
  EXPECT_GT(collisions, 0);
  EXPECT_GT(verified, 0);
}

TEST(StateHashSoundnessTest, OpenFdTablesKeepEqualTreesApart) {
  // Regression for the classic unsoundness: two Vfs states whose
  // directory trees are bit-identical but where one process still holds
  // an open descriptor. A later write/fchown through the surviving fd
  // diverges, so the digests must never collide.
  const auto build = [] {
    auto vfs = std::make_unique<fs::Vfs>(fs::SyscallCosts::xeon());
    vfs->mkdir_p("/home/alice", 500, 500, 0755);
    vfs->create_file("/home/alice/f.txt", 500, 500, 0644, 4096);
    return vfs;
  };
  const auto digest_of = [](const fs::Vfs& vfs) {
    StateHasher h;
    vfs.hash_state(h);
    EXPECT_TRUE(h.hashable());
    return h.digest();
  };

  const auto plain = build();
  const auto with_fd = build();
  const fs::Ino ino = with_fd->lookup("/home/alice/f.txt").value();
  with_fd->fd_alloc(/*pid=*/1, ino, fs::OpenFlags::read_only());

  EXPECT_NE(digest_of(*plain), digest_of(*with_fd));

  // Same fd count, different mode: a read-only and a writable
  // description of the same inode must also stay apart (only one of
  // them lets the holder mutate the file later).
  const auto with_write_fd = build();
  with_write_fd->fd_alloc(/*pid=*/1, ino,
                          fs::OpenFlags::write_create_trunc());
  EXPECT_NE(digest_of(*with_fd), digest_of(*with_write_fd));
}

}  // namespace
}  // namespace tocttou::explore
