#include "tocttou/sim/faults.h"

#include <cerrno>
#include <cstdlib>

#include "tocttou/common/strings.h"

namespace tocttou::sim {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::syscall_error:
      return "error";
    case FaultKind::latency_spike:
      return "spike";
    case FaultKind::wakeup_delay:
      return "wakeup-delay";
    case FaultKind::wakeup_drop:
      return "wakeup-drop";
    case FaultKind::kill_process:
      return "kill";
  }
  return "?";
}

const char* to_string(FaultRole r) {
  switch (r) {
    case FaultRole::any:
      return "any";
    case FaultRole::victim:
      return "victim";
    case FaultRole::attacker:
      return "attacker";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FaultStats
// ---------------------------------------------------------------------------

void FaultStats::merge(const FaultStats& other) {
  errors_injected += other.errors_injected;
  latency_spikes += other.latency_spikes;
  wakeups_delayed += other.wakeups_delayed;
  wakeups_dropped += other.wakeups_dropped;
  kills += other.kills;
  retries += other.retries;
  invariant_violations += other.invariant_violations;
  degraded_rounds += other.degraded_rounds;
}

std::string FaultStats::summary() const {
  std::string out;
  const auto add = [&out](const char* name, std::uint64_t v) {
    if (v == 0) return;
    if (!out.empty()) out += ' ';
    out += strfmt("%s=%llu", name, static_cast<unsigned long long>(v));
  };
  add("err", errors_injected);
  add("spike", latency_spikes);
  add("wake-delay", wakeups_delayed);
  add("wake-drop", wakeups_dropped);
  add("kill", kills);
  add("retries", retries);
  add("degraded", degraded_rounds);
  add("violations", invariant_violations);
  if (out.empty()) out = "none";
  return "faults[" + out + "]";
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

bool FaultPlan::has(FaultKind k) const {
  for (const auto& s : specs) {
    if (s.kind == k) return true;
  }
  return false;
}

bool FaultPlan::inert() const {
  for (const auto& s : specs) {
    if (s.rate > 0.0 || s.nth > 0) return false;
  }
  return true;
}

namespace {

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

bool parse_double(const std::string& v, double* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = x;
  return true;
}

bool parse_u64(const std::string& v, std::uint64_t* out) {
  if (v.empty() || v[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = x;
  return true;
}

bool parse_errno(const std::string& v, Errno* out) {
  if (v == "eintr") *out = Errno::eintr;
  else if (v == "enospc") *out = Errno::enospc;
  else if (v == "eio") *out = Errno::eio;
  else return false;
  return true;
}

bool parse_role(const std::string& v, FaultRole* out) {
  if (v == "any") *out = FaultRole::any;
  else if (v == "victim") *out = FaultRole::victim;
  else if (v == "attacker") *out = FaultRole::attacker;
  else return false;
  return true;
}

bool parse_clause(const std::string& clause, FaultSpec* spec,
                  std::string* err) {
  const auto fields = split_on(clause, ':');
  if (fields.size() < 2) {
    *err = "clause '" + clause + "' needs at least kind:rate";
    return false;
  }
  const std::string& kind = fields[0];
  if (kind == "error") spec->kind = FaultKind::syscall_error;
  else if (kind == "spike") spec->kind = FaultKind::latency_spike;
  else if (kind == "wakeup-delay") spec->kind = FaultKind::wakeup_delay;
  else if (kind == "wakeup-drop") spec->kind = FaultKind::wakeup_drop;
  else if (kind == "kill") spec->kind = FaultKind::kill_process;
  else {
    *err = "unknown fault kind '" + kind + "'";
    return false;
  }
  if (!parse_double(fields[1], &spec->rate) || spec->rate < 0.0 ||
      spec->rate > 1.0) {
    *err = "bad rate '" + fields[1] + "' in '" + clause +
           "' (expected 0..1)";
    return false;
  }
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const std::size_t eq = fields[i].find('=');
    if (eq == std::string::npos) {
      *err = "expected key=value, got '" + fields[i] + "'";
      return false;
    }
    const std::string key = fields[i].substr(0, eq);
    const std::string val = fields[i].substr(eq + 1);
    if (key == "errno") {
      if (spec->kind != FaultKind::syscall_error) {
        *err = "errno= only applies to error clauses";
        return false;
      }
      if (!parse_errno(val, &spec->error)) {
        *err = "unknown errno '" + val + "' (eintr|enospc|eio)";
        return false;
      }
    } else if (key == "op") {
      spec->op = val;
    } else if (key == "path") {
      spec->path_prefix = val;
    } else if (key == "role") {
      if (!parse_role(val, &spec->role)) {
        *err = "unknown role '" + val + "' (victim|attacker|any)";
        return false;
      }
    } else if (key == "nth") {
      if (!parse_u64(val, &spec->nth) || spec->nth == 0) {
        *err = "bad nth '" + val + "' (expected a positive integer)";
        return false;
      }
    } else if (key == "us") {
      std::uint64_t us = 0;
      if (!parse_u64(val, &us)) {
        *err = "bad us '" + val + "' (expected microseconds)";
        return false;
      }
      spec->magnitude = Duration::micros(static_cast<std::int64_t>(us));
    } else {
      *err = "unknown key '" + key + "' in '" + clause + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

bool FaultPlan::parse(const std::string& text, FaultPlan* out,
                      std::string* err) {
  FaultPlan plan;
  std::string local_err;
  if (err == nullptr) err = &local_err;
  if (text.empty()) {
    *err = "empty fault spec";
    return false;
  }
  for (const auto& clause : split_on(text, ',')) {
    FaultSpec spec;
    if (!parse_clause(clause, &spec, err)) return false;
    plan.specs.push_back(std::move(spec));
  }
  *out = std::move(plan);
  return true;
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const auto& s : specs) {
    if (!out.empty()) out += ',';
    out += strfmt("%s:%g", to_string(s.kind), s.rate);
    if (s.kind == FaultKind::syscall_error) {
      out += strfmt(":errno=%s", to_string(s.error));
    }
    if (s.kind == FaultKind::latency_spike ||
        s.kind == FaultKind::wakeup_delay) {
      out += strfmt(":us=%lld", static_cast<long long>(s.magnitude.us()));
    }
    if (!s.op.empty()) out += ":op=" + s.op;
    if (!s.path_prefix.empty()) out += ":path=" + s.path_prefix;
    if (s.role != FaultRole::any) {
      out += strfmt(":role=%s", to_string(s.role));
    }
    if (s.nth > 0) {
      out += strfmt(":nth=%llu", static_cast<unsigned long long>(s.nth));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)),
      rng_(seed),
      occurrences_(plan_.specs.size(), 0) {
  for (const auto& s : plan_.specs) {
    if (s.kind == FaultKind::syscall_error && (s.rate > 0.0 || s.nth > 0)) {
      has_errors_ = true;
    }
    if (s.kind == FaultKind::kill_process) has_kills_ = true;
  }
}

void FaultInjector::set_role(Pid pid, FaultRole role) {
  roles_[pid] = role;
}

bool FaultInjector::role_matches(const FaultSpec& spec, Pid pid) const {
  if (spec.role == FaultRole::any) return true;
  const auto it = roles_.find(pid);
  return it != roles_.end() && it->second == spec.role;
}

bool FaultInjector::decide(std::size_t idx) {
  const FaultSpec& spec = plan_.specs[idx];
  const std::uint64_t seen = ++occurrences_[idx];
  if (spec.nth > 0) return seen == spec.nth;
  // The draw happens for every match (even rate 0) so that the decision
  // sequence is a pure function of the query sequence.
  return rng_.bernoulli(spec.rate);
}

std::optional<Errno> FaultInjector::syscall_error(std::string_view op,
                                                  std::string_view path,
                                                  Pid pid) {
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (s.kind != FaultKind::syscall_error) continue;
    if (!s.op.empty() && s.op != op) continue;
    if (!path.starts_with(s.path_prefix)) continue;
    if (!role_matches(s, pid)) continue;
    if (decide(i)) {
      ++stats_.errors_injected;
      return s.error;
    }
  }
  return std::nullopt;
}

Duration FaultInjector::completion_spike(std::string_view op, Pid pid) {
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (s.kind != FaultKind::latency_spike) continue;
    if (!s.op.empty() && s.op != op) continue;
    if (!role_matches(s, pid)) continue;
    if (decide(i)) {
      ++stats_.latency_spikes;
      return s.magnitude;
    }
  }
  return Duration::zero();
}

FaultInjector::WakeFault FaultInjector::wakeup_fault(Pid pid,
                                                     Duration* delay) {
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (s.kind != FaultKind::wakeup_delay &&
        s.kind != FaultKind::wakeup_drop) {
      continue;
    }
    if (!role_matches(s, pid)) continue;
    if (decide(i)) {
      if (s.kind == FaultKind::wakeup_drop) {
        ++stats_.wakeups_dropped;
        return WakeFault::drop;
      }
      ++stats_.wakeups_delayed;
      *delay = s.magnitude;
      return WakeFault::delay;
    }
  }
  return WakeFault::none;
}

bool FaultInjector::kill_at_syscall_return(Pid pid) {
  if (!has_kills_) return false;
  // nth for kills is per process: "kill at its Nth syscall return".
  const std::uint64_t returns = ++syscall_returns_[pid];
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& s = plan_.specs[i];
    if (s.kind != FaultKind::kill_process) continue;
    if (!role_matches(s, pid)) continue;
    bool fire = false;
    if (s.nth > 0) {
      fire = returns == s.nth;
    } else {
      fire = rng_.bernoulli(s.rate);
    }
    if (fire) {
      ++stats_.kills;
      killed_.push_back(pid);
      return true;
    }
  }
  return false;
}

bool FaultInjector::was_killed(Pid pid) const {
  for (const Pid p : killed_) {
    if (p == pid) return true;
  }
  return false;
}

}  // namespace tocttou::sim
