// Test-only program helpers for driving the simulated kernel.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "tocttou/sim/fields.h"
#include "tocttou/sim/kernel.h"

namespace tocttou::testing {

/// Runs a fixed list of actions in order, then exits. Keeps the result
/// of each syscall it issued, in order.
class ScriptProgram final : public sim::Program {
 public:
  explicit ScriptProgram(std::vector<sim::Action> actions)
      : actions_(std::move(actions)) {}

  sim::Action next(sim::ProgramContext& ctx) override {
    if (ctx.has_result()) results_.push_back(ctx.result());
    if (i_ >= actions_.size()) return sim::Action::exit_proc();
    return std::move(actions_[i_++]);
  }

  const std::vector<sim::SyscallResult>& results() const { return results_; }

 private:
  std::vector<sim::Action> actions_;
  std::size_t i_ = 0;
  std::vector<sim::SyscallResult> results_;
};

/// The results of the syscalls that the ScriptProgram process `pid` runs
/// has completed, in order.
inline const std::vector<sim::SyscallResult>& script_results(
    const sim::Kernel& kernel, sim::Pid pid) {
  return dynamic_cast<const ScriptProgram&>(kernel.process(pid).program())
      .results();
}

/// Delegates to a lambda; the lambda returns exit_proc() to stop.
class LambdaProgram final : public sim::Program {
 public:
  using Fn = std::function<sim::Action(sim::ProgramContext&)>;
  explicit LambdaProgram(Fn fn) : fn_(std::move(fn)) {}

  sim::Action next(sim::ProgramContext& ctx) override { return fn_(ctx); }

 private:
  Fn fn_;
};

/// Spins forever in tiny compute slices without ever advancing the
/// scenario — the livelock the step-budget watchdog exists to catch.
/// Spinning must go through compute actions (each one a kernel event);
/// an instantaneous action like mark would loop inside a single kernel
/// step and never reach the budget check. Stateless: its field list is
/// empty, so the type tag is the whole canonical digest — this is what
/// makes bystander-heavy sweeps merge well under state hashing.
class LivelockProgram final
    : public sim::Listed<LivelockProgram, sim::Program> {
 public:
  static auto fields(auto&) { return std::tie(); }

  sim::Action next(sim::ProgramContext& ctx) override {
    (void)ctx;
    return sim::Action::compute(Duration::nanos(100), "spin");
  }
};

/// A ServiceOp replaying a fixed step sequence (must end with done).
class ScriptOp final : public sim::ServiceOp {
 public:
  ScriptOp(std::string name, std::vector<sim::Step> steps, int libc_page = -1)
      : name_(std::move(name)), steps_(std::move(steps)), page_(libc_page) {}

  std::string_view name() const override { return name_; }
  int libc_page() const override { return page_; }

  sim::Step advance(sim::ServiceContext& ctx) override {
    (void)ctx;
    if (i_ >= steps_.size()) return sim::Step::done();
    return steps_[i_++];
  }

 private:
  std::string name_;
  std::vector<sim::Step> steps_;
  int page_;
  std::size_t i_ = 0;
};

}  // namespace tocttou::testing
