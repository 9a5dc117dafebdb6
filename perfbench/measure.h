// Statistics and bookkeeping for the benchmark program, kept free of the
// simulator's headers so selftest.cc can check them on fixed inputs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Fastest value, median, quartiles and 90th percentile of a sample of
/// timings.
struct Summary {
  std::size_t n = 0;
  double min = 0.0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  /// The 90th percentile by nearest rank, the ceil(0.9 n)-th smallest
  /// value: always one of the samples, the largest when n < 10.
  double p90 = 0.0;
};

/// The median and quartiles follow Python's statistics.median and
/// statistics.quantiles (method "exclusive"), so the quartiles the
/// benchmark prints are the ones a run-to-run spread is judged with.
inline Summary summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const long n = static_cast<long>(xs.size());
  s.min = xs[0];
  s.median = (n % 2 == 1) ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
  s.p90 = xs[(9 * n + 9) / 10 - 1];
  if (n < 2) {
    s.q1 = s.q3 = xs[0];
    return s;
  }
  // The i-th of the cut points that split the sample into `parts`.
  const auto cut = [&](long i, long parts) {
    const long m = n + 1;
    const long j = std::clamp(i * m / parts, 1L, n - 1);
    const long delta = i * m - j * parts;
    return (xs[j - 1] * static_cast<double>(parts - delta) +
            xs[j] * static_cast<double>(delta)) /
           static_cast<double>(parts);
  };
  s.q1 = cut(1, 4);
  s.q3 = cut(3, 4);
  return s;
}

/// Counts the operations a run attempted and the ones that failed a
/// check. A failed check is recorded, never thrown: the run goes on and
/// reports it in its result line.
class Ledger {
 public:
  void record(const std::string& what, const std::vector<std::string>& problems) {
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const std::string& p : problems) failures_.push_back(what + ": " + p);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// One traced interval. Spans of one simulated round share `round` as
/// their identifier; `parent` names the span that caused this one.
struct Span {
  std::string name;
  std::string parent;
  int unit = 0;
  int round = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t ns() const { return end_ns - start_ns; }
};

/// Total duration of the spans named `name`.
inline std::int64_t total_ns(const std::vector<Span>& spans,
                             const std::string& name) {
  std::int64_t t = 0;
  for (const Span& s : spans) {
    if (s.name == name) t += s.ns();
  }
  return t;
}

/// Share of the traced units' wall time that the spans directly under
/// the rounds (staging, stepping, judging) account for. What is left is
/// the benchmark's own bookkeeping between those calls.
inline double span_coverage(const std::vector<Span>& spans) {
  std::int64_t covered = 0;
  for (const Span& s : spans) {
    if (s.parent == "round") covered += s.ns();
  }
  const std::int64_t wall = total_ns(spans, "unit");
  return wall > 0 ? static_cast<double>(covered) / static_cast<double>(wall)
                  : 0.0;
}

/// The simulated outcome of one campaign, as compared between units and
/// against the pinned values.
struct CampaignDigest {
  std::uint64_t rounds = 0;
  std::uint64_t successes = 0;
  std::uint64_t total_events = 0;
  std::uint64_t anomalies = 0;
  std::uint64_t failed_rounds = 0;
  std::uint64_t victim_incomplete = 0;
  std::uint64_t attacker_unfinished = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t detect_rounds = 0;
  std::uint64_t races = 0;
  std::uint64_t windows = 0;
  std::uint64_t mutations = 0;
  std::uint64_t rounds_flagged = 0;

  /// Equal simulated behaviour, ignoring what the detector observed.
  bool same_simulation(const CampaignDigest& o) const {
    return rounds == o.rounds && successes == o.successes &&
           total_events == o.total_events && anomalies == o.anomalies &&
           failed_rounds == o.failed_rounds &&
           victim_incomplete == o.victim_incomplete &&
           attacker_unfinished == o.attacker_unfinished &&
           audit_violations == o.audit_violations;
  }
  bool operator==(const CampaignDigest&) const = default;
};

/// Values pinned for the default seed.
struct CampaignPins {
  std::uint64_t successes = 0;
  std::uint64_t total_events = 0;
  std::uint64_t anomalies = 0;
  std::uint64_t victim_incomplete = 0;
  std::uint64_t races = 0;
  std::uint64_t windows = 0;
  std::uint64_t mutations = 0;
  std::uint64_t rounds_flagged = 0;
};

inline void expect_eq(std::vector<std::string>& out, const char* field,
                      std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    out.push_back(std::string(field) + " = " + std::to_string(got) +
                  ", pinned " + std::to_string(want));
  }
}

/// Problems of a campaign unit that any seed must avoid.
inline std::vector<std::string> campaign_health(const CampaignDigest& d) {
  std::vector<std::string> out;
  expect_eq(out, "failed_rounds", d.failed_rounds, 0);
  expect_eq(out, "audit_violations", d.audit_violations, 0);
  return out;
}

inline std::vector<std::string> pin_problems(const CampaignDigest& d,
                                             const CampaignPins& p) {
  std::vector<std::string> out;
  expect_eq(out, "successes", d.successes, p.successes);
  expect_eq(out, "total_events", d.total_events, p.total_events);
  expect_eq(out, "anomalies", d.anomalies, p.anomalies);
  expect_eq(out, "victim_incomplete", d.victim_incomplete, p.victim_incomplete);
  expect_eq(out, "races", d.races, p.races);
  expect_eq(out, "windows", d.windows, p.windows);
  expect_eq(out, "mutations", d.mutations, p.mutations);
  expect_eq(out, "rounds_flagged", d.rounds_flagged, p.rounds_flagged);
  return out;
}

/// Checks one timed campaign unit and records it: healthy for any seed,
/// equal to the run's first unit, and equal to `pins` when given (the
/// default seed). The first unit becomes the reference.
inline void check_campaign_unit(Ledger& ledger, const std::string& what,
                                const CampaignDigest& d,
                                std::optional<CampaignDigest>& first,
                                const CampaignPins* pins) {
  std::vector<std::string> problems = campaign_health(d);
  if (!first) {
    first = d;
  } else if (!(d == *first)) {
    problems.push_back("differs from the first unit");
  }
  if (pins != nullptr) {
    for (std::string& p : pin_problems(d, *pins)) problems.push_back(std::move(p));
  }
  ledger.record(what, problems);
}

}  // namespace perfbench
