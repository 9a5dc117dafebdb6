// Self-tests of the benchmark's own bookkeeping (measure.h), on fixed
// inputs. run.py runs them before every benchmark run and stops if any
// fails. Exit code 0 = all passed.

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "perfbench self-test FAILED: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12 * std::fmax(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

// Reference values from Python: statistics.median(xs),
// statistics.quantiles(xs, n=4), and the nearest-rank 90th percentile
// sorted(xs)[math.ceil(0.9 * len(xs)) - 1].
void test_summary_with_burst() {
  // Seven units, one of them caught in a 4.5x host burst.
  const perfbench::Summary odd =
      perfbench::summarize({0.101, 0.099, 0.100, 0.102, 0.098, 0.100, 0.450});
  expect(odd.n == 7, "odd sample count");
  expect_near(odd.median, 0.100, "odd median ignores the burst");
  expect_near(odd.q1, 0.099, "odd q1");
  expect_near(odd.q3, 0.102, "odd q3");
  expect_near(odd.min, 0.098, "odd min ignores the burst");
  expect_near(odd.p90, 0.450, "odd p90 is the burst itself");

  // Even count: the median averages the middle pair; the burst only
  // reaches q3.
  const perfbench::Summary even =
      perfbench::summarize({0.2, 0.21, 0.19, 0.2, 1.5, 0.22});
  expect_near(even.median, 0.205, "even median");
  expect_near(even.q1, 0.1975, "even q1");
  expect_near(even.q3, 0.54, "even q3 sees the burst");
  expect_near(even.p90, 1.5, "even p90");

  // Twelve units, a quarter of them caught in a fast phase: the 90th
  // percentile stays with the slow majority.
  const perfbench::Summary phase = perfbench::summarize(
      {0.3, 0.31, 0.29, 0.305, 0.2, 0.21, 0.19, 0.3, 0.31, 0.32, 0.33, 0.3});
  expect_near(phase.median, 0.3, "phase median");
  expect_near(phase.q1, 0.23, "phase q1");
  expect_near(phase.q3, 0.31, "phase q3");
  expect_near(phase.p90, 0.32, "phase p90");

  // Few samples: Python's exclusive quartiles extrapolate past the
  // extremes, the nearest-rank p90 stays on the slowest sample.
  const perfbench::Summary two = perfbench::summarize({3.0, 1.0});
  expect_near(two.median, 2.0, "two-sample median");
  expect_near(two.q1, 0.5, "two-sample q1");
  expect_near(two.q3, 3.5, "two-sample q3");
  expect_near(two.p90, 3.0, "two-sample p90");
  const perfbench::Summary three = perfbench::summarize({6.2, 5.5, 7.0});
  expect_near(three.median, 6.2, "three-sample median");
  expect_near(three.q3, 7.0, "three-sample q3");
  expect_near(three.p90, 7.0, "three-sample p90 is the slowest sample");
  const perfbench::Summary four = perfbench::summarize({6.2, 5.5, 7.0, 5.9});
  expect_near(four.median, 6.05, "four-sample median");
  expect_near(four.q3, 6.8, "four-sample q3");
  expect_near(four.p90, 7.0, "four-sample p90 is the slowest sample");

  // Twenty samples: the 18th smallest.
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(i);
  expect_near(perfbench::summarize(twenty).p90, 18.0, "twenty-sample p90");

  const perfbench::Summary one = perfbench::summarize({4.0});
  expect(one.n == 1 && one.median == 4.0 && one.q1 == 4.0 &&
             one.q3 == 4.0 && one.p90 == 4.0,
         "one-sample summary");
}

// A unit whose result disagrees with a pinned value is a failed
// operation in the ledger; the run keeps going.
void test_perturbed_pin_counts_as_failure() {
  perfbench::CampaignDigest d;
  d.rounds = 64;
  d.successes = 3;
  d.total_events = 1000;
  perfbench::CampaignPins pins;
  pins.successes = 3;
  pins.total_events = 1000;

  perfbench::Ledger ledger;
  std::optional<perfbench::CampaignDigest> first;
  perfbench::check_campaign_unit(ledger, "unit", d, first, &pins);
  expect(ledger.attempted() == 1 && ledger.failed() == 0,
         "matching unit passes");

  perfbench::CampaignPins perturbed = pins;
  perturbed.successes += 1;
  perfbench::check_campaign_unit(ledger, "unit", d, first, &perturbed);
  expect(ledger.attempted() == 2 && ledger.failed() == 1,
         "perturbed pin is one failed operation");
  expect(ledger.failures().size() == 1 &&
             ledger.failures()[0] == "unit: successes = 3, pinned 4",
         "failure names the pinned field");

  // A unit that differs from the first one fails even without pins,
  // and so does a round that threw.
  perfbench::CampaignDigest other = d;
  other.total_events += 1;
  perfbench::check_campaign_unit(ledger, "unit", other, first, nullptr);
  perfbench::CampaignDigest thrown = d;
  thrown.failed_rounds = 1;
  perfbench::check_campaign_unit(ledger, "unit", thrown, first, nullptr);
  perfbench::check_campaign_unit(ledger, "unit", d, first, &pins);
  expect(ledger.attempted() == 5 && ledger.failed() == 3,
         "mismatched and thrown units fail, the run goes on");
}

void test_span_coverage() {
  using perfbench::Span;
  // Two rounds in one 1000 ns unit. Round 0's staging, stepping and
  // judging cover 480 of its 500 ns; round 1 has one 390 ns child. The
  // 20 ns and 110 ns gaps are the benchmark's own bookkeeping.
  const std::vector<Span> spans = {
      {"core.round_setup", "round", 0, 0, 0, 100},
      {"sim.steps", "round", 0, 0, 100, 400},
      {"core.round_finish", "round", 0, 0, 400, 480},
      {"round", "unit", 0, 0, 0, 500},
      {"sim.steps", "round", 0, 1, 510, 900},
      {"round", "unit", 0, 1, 500, 1000},
      {"unit", "", 0, -1, 0, 1000},
  };
  expect_near(perfbench::span_coverage(spans), 0.87, "span coverage");
  expect(perfbench::total_ns(spans, "sim.steps") == 690, "total_ns");
  expect(perfbench::span_coverage({}) == 0.0, "coverage without units");
}

}  // namespace

int main() {
  test_summary_with_burst();
  test_perturbed_pin_counts_as_failure();
  test_span_coverage();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
