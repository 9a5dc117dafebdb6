// Choice sources: the policies that resolve scheduling choice points.
//
// An ExploringScheduler funnels every genuinely nondeterministic
// scheduling decision (run-queue order with >= 2 ready candidates,
// equal-priority wakeup preemption, idle-CPU placement) through a
// ChoiceSource. The sources here implement the exploration strategies:
//
//  * GuidedSource — follow a forced choice prefix, then the scheduling
//    policy; records every site it resolves. With an empty prefix it is
//    a pure recorder of the policy schedule (the DFS enumerator's root,
//    and the replay engine when a token carries no explicit choices).
//  * PctSource — PCT-style randomized priorities (Burckhardt et al.,
//    ASPLOS'10): each process draws a random priority on first sight,
//    choice points resolve in priority order, and d-1 pre-drawn change
//    points demote the winner. For a schedule space with n processes and
//    at most k choice points, any bug of depth d is hit with probability
//    >= 1 / (n * k^(d-1)) per schedule.
//
// Sites are recorded with enough context (candidate pids, the policy
// option) for the DFS enumerator to expand siblings. Every sibling is
// expanded: no ordering of two processes is assumed to commute, because
// the paper's races are won or lost on timing alone (DESIGN.md §10.1).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tocttou/common/rng.h"
#include "tocttou/explore/token.h"
#include "tocttou/sim/ids.h"

namespace tocttou::explore {

/// Everything known at a choice site when it must be resolved.
struct ChoiceContext {
  ChoiceKind kind = ChoiceKind::pick;
  int n = 0;       // number of options (always >= 2 at a site)
  int policy = 0;  // the option the underlying scheduling policy takes
  /// pick: the candidate pid per option, in option order.
  /// preempt: {woken, running} (options are 0 = don't preempt, 1 = do).
  /// place: empty (options are idle CPUs, see `cpus`).
  std::vector<sim::Pid> procs;
  std::vector<sim::CpuId> cpus;  // place: the idle CPU per option
};

class ChoiceSource {
 public:
  virtual ~ChoiceSource() = default;
  /// Returns the chosen option index in [0, ctx.n).
  virtual int choose(const ChoiceContext& ctx) = 0;
};

/// One resolved choice site, with the context the enumerator needs.
struct SiteRecord {
  Choice choice;             // kind, chosen option, option count
  std::uint16_t policy = 0;  // the option the policy would have taken
  /// pick sites: candidate pid per option.
  std::vector<sim::Pid> options;

  bool operator==(const SiteRecord&) const = default;
};

class GuidedSource final : public ChoiceSource {
 public:
  /// Follows `prefix` (validating kind/option-count at each site), then
  /// the policy.
  explicit GuidedSource(std::vector<Choice> prefix);

  /// Mid-stream form for checkpoint forks: the round being steered has
  /// ALREADY resolved `seeded_sites` (inherited from the parent state the
  /// fork cloned), so they are adopted verbatim and the first site the
  /// clone reaches consumes prefix[seeded_sites.size()]. Prefix indices
  /// align with global site indices, exactly as if the whole round had
  /// been replayed under `prefix` from the start — sites(), consumed()
  /// and token_choices() all report from the round's beginning.
  GuidedSource(std::vector<Choice> prefix,
               std::vector<SiteRecord> seeded_sites);

  int choose(const ChoiceContext& ctx) override;

  const std::vector<SiteRecord>& sites() const { return sites_; }
  /// All resolved choices, token-ready.
  std::vector<Choice> token_choices() const;
  /// Number of prefix entries actually consumed.
  std::size_t consumed() const { return consumed_; }
  /// False if a prefix entry did not match the site the kernel reached
  /// (wrong kind or option count) — the config diverged from the one the
  /// prefix was recorded under. The mismatching site falls back to the
  /// policy option so the round still completes.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  std::vector<Choice> prefix_;
  std::vector<SiteRecord> sites_;
  std::size_t consumed_ = 0;
  std::string error_;
};

struct PctParams {
  std::uint64_t seed = 1;
  /// Bug depth d: d-1 priority change points are planted per schedule.
  int depth = 3;
  /// Estimate of the number of choice sites per schedule (the k in the
  /// hitting bound); change points are drawn uniformly from [1, k].
  int expected_steps = 64;
};

class PctSource final : public ChoiceSource {
 public:
  explicit PctSource(PctParams params);

  int choose(const ChoiceContext& ctx) override;

  const std::vector<SiteRecord>& sites() const { return sites_; }
  std::vector<Choice> token_choices() const;
  /// Distinct processes observed at choice sites (the n in the bound).
  int procs_seen() const { return static_cast<int>(prio_.size()); }
  /// Choice sites resolved (the per-schedule k observed).
  int steps() const { return step_; }

 private:
  struct Pri {
    int band = 1;  // 0 = demoted by a change point
    std::uint64_t val = 0;
    bool operator<(const Pri& o) const {
      return band != o.band ? band < o.band : val < o.val;
    }
  };
  Pri priority_of(sim::Pid pid);
  void maybe_demote(sim::Pid winner);

  PctParams params_;
  Rng rng_;
  std::map<sim::Pid, Pri> prio_;
  std::set<int> change_steps_;
  std::uint64_t demote_counter_ = UINT64_MAX;
  int step_ = 0;
  std::vector<SiteRecord> sites_;
};

}  // namespace tocttou::explore
