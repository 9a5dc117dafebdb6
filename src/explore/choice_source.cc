#include "tocttou/explore/choice_source.h"

#include "tocttou/common/error.h"
#include "tocttou/common/strings.h"

namespace tocttou::explore {

namespace {

SiteRecord make_record(const ChoiceContext& ctx, int chosen) {
  SiteRecord rec;
  rec.choice.kind = ctx.kind;
  rec.choice.chosen = static_cast<std::uint16_t>(chosen);
  rec.choice.n = static_cast<std::uint16_t>(ctx.n);
  rec.policy = static_cast<std::uint16_t>(ctx.policy);
  if (ctx.kind == ChoiceKind::pick) rec.options = ctx.procs;
  return rec;
}

}  // namespace

GuidedSource::GuidedSource(std::vector<Choice> prefix)
    : prefix_(std::move(prefix)) {}

GuidedSource::GuidedSource(std::vector<Choice> prefix,
                           std::vector<SiteRecord> seeded_sites)
    : prefix_(std::move(prefix)),
      sites_(std::move(seeded_sites)),
      consumed_(sites_.size()) {
  TOCTTOU_CHECK(consumed_ <= prefix_.size(),
                "seeded sites extend past the forced prefix");
}

int GuidedSource::choose(const ChoiceContext& ctx) {
  TOCTTOU_CHECK(ctx.n >= 2, "choice site needs at least two options");
  TOCTTOU_CHECK(ctx.policy >= 0 && ctx.policy < ctx.n,
                "policy option out of range");
  int chosen = ctx.policy;
  if (consumed_ < prefix_.size()) {
    const Choice& want = prefix_[consumed_];
    if (want.kind != ctx.kind || want.n != static_cast<std::uint16_t>(ctx.n)) {
      if (error_.empty()) {
        error_ = strfmt(
            "choice %zu mismatch: token has %s/%u options, the round reached "
            "%s/%d options",
            consumed_, to_string(want.kind), want.n, to_string(ctx.kind),
            ctx.n);
      }
    } else {
      chosen = want.chosen;
    }
    ++consumed_;
  }
  sites_.push_back(make_record(ctx, chosen));
  return chosen;
}

std::vector<Choice> GuidedSource::token_choices() const {
  std::vector<Choice> out;
  out.reserve(sites_.size());
  for (const SiteRecord& s : sites_) out.push_back(s.choice);
  return out;
}

PctSource::PctSource(PctParams params)
    : params_(params), rng_(params.seed) {
  TOCTTOU_CHECK(params_.depth >= 1, "pct depth must be >= 1");
  TOCTTOU_CHECK(params_.expected_steps >= 1, "pct steps must be >= 1");
  // Plant d-1 priority change points uniformly over the expected steps.
  while (static_cast<int>(change_steps_.size()) < params_.depth - 1 &&
         static_cast<int>(change_steps_.size()) < params_.expected_steps) {
    change_steps_.insert(
        static_cast<int>(rng_.uniform_int(1, params_.expected_steps)));
  }
}

PctSource::Pri PctSource::priority_of(sim::Pid pid) {
  const auto it = prio_.find(pid);
  if (it != prio_.end()) return it->second;
  const Pri p{1, rng_.next_u64()};
  prio_.emplace(pid, p);
  return p;
}

void PctSource::maybe_demote(sim::Pid winner) {
  ++step_;
  if (change_steps_.count(step_) != 0) {
    // Change point: the currently winning process drops below every
    // initial priority; later demotions land lower still.
    prio_[winner] = Pri{0, demote_counter_--};
  }
}

int PctSource::choose(const ChoiceContext& ctx) {
  TOCTTOU_CHECK(ctx.n >= 2, "choice site needs at least two options");
  int chosen = ctx.policy;
  sim::Pid winner = sim::kNoPid;
  switch (ctx.kind) {
    case ChoiceKind::pick: {
      Pri best{};
      for (int i = 0; i < ctx.n; ++i) {
        const Pri p = priority_of(ctx.procs[static_cast<std::size_t>(i)]);
        if (i == 0 || best < p) {
          best = p;
          chosen = i;
        }
      }
      winner = ctx.procs[static_cast<std::size_t>(chosen)];
      break;
    }
    case ChoiceKind::preempt: {
      const sim::Pid woken = ctx.procs[0];
      const sim::Pid running = ctx.procs[1];
      const bool preempts = priority_of(running) < priority_of(woken);
      chosen = preempts ? 1 : 0;
      winner = preempts ? woken : running;
      break;
    }
    case ChoiceKind::place:
      // CPU placement carries no PCT priority semantics; follow policy.
      chosen = ctx.policy;
      break;
  }
  sites_.push_back(make_record(ctx, chosen));
  if (winner != sim::kNoPid) maybe_demote(winner);
  return chosen;
}

std::vector<Choice> PctSource::token_choices() const {
  std::vector<Choice> out;
  out.reserve(sites_.size());
  for (const SiteRecord& s : sites_) out.push_back(s.choice);
  return out;
}

}  // namespace tocttou::explore
