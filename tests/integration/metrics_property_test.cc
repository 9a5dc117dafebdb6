// Property and conservation tests for campaign metrics:
//
//  * merge() is associative and commutative, so the parallel campaign's
//    fixed-block-order reduction equals any other grouping;
//  * campaign metrics are bit-identical at any --jobs value;
//  * the counters agree with the independently recorded syscall journal
//    and trace (the same quantities measured two ways must match).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "tocttou/core/harness.h"
#include "tocttou/metrics/metrics.h"
#include "tocttou/trace/trace.h"

namespace tocttou::core {
namespace {

ScenarioConfig smp_vi_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.profile = programs::testbed_smp_dual_xeon();
  cfg.victim = VictimKind::vi;
  cfg.file_bytes = 8 * 1024;
  cfg.seed = seed;
  cfg.collect_metrics = true;
  return cfg;
}

TEST(MetricsPropertyTest, MergeIsAssociativeAndCommutativeOnRealRounds) {
  // Three genuinely different per-round snapshots (different seeds).
  metrics::Registry a = run_round(smp_vi_config(101)).metrics;
  metrics::Registry b = run_round(smp_vi_config(102)).metrics;
  metrics::Registry c = run_round(smp_vi_config(103)).metrics;
  ASSERT_FALSE(a.empty());

  metrics::Registry left;  // (a + b) + c
  left.merge(a);
  left.merge(b);
  left.merge(c);

  metrics::Registry right;  // a + (b + c)
  metrics::Registry bc;
  bc.merge(b);
  bc.merge(c);
  right.merge(a);
  right.merge(bc);

  metrics::Registry swapped;  // c + a + b
  swapped.merge(c);
  swapped.merge(a);
  swapped.merge(b);

  EXPECT_EQ(left.to_json(), right.to_json());
  EXPECT_EQ(left.to_json(), swapped.to_json());
  EXPECT_EQ(left.to_csv(), right.to_csv());
}

TEST(MetricsPropertyTest, CampaignMetricsAreJobsInvariant) {
  const ScenarioConfig cfg = smp_vi_config(7);
  const CampaignStats serial = run_campaign(cfg, 24, false, /*jobs=*/1);
  const CampaignStats parallel = run_campaign(cfg, 24, false, /*jobs=*/4);
  ASSERT_FALSE(serial.metrics.empty());
  EXPECT_EQ(serial.metrics.to_json(), parallel.metrics.to_json());
  EXPECT_EQ(serial.summary(), parallel.summary());
}

TEST(MetricsPropertyTest, SummaryNeverMentionsMetrics) {
  // The zero-overhead contract extends to output: campaign text is the
  // same whether metrics were collected or not.
  ScenarioConfig with = smp_vi_config(7);
  ScenarioConfig without = with;
  without.collect_metrics = false;
  EXPECT_EQ(run_campaign(with, 8).summary(), run_campaign(without, 8).summary());
}

TEST(MetricsConservationTest, SyscallCountersMatchJournal) {
  // The journal and the metrics are recorded at the same completion
  // point in the kernel but flow through disjoint code paths — their
  // per-op counts must agree exactly.
  ScenarioConfig cfg = smp_vi_config(5);
  cfg.record_journal = true;
  const RoundResult r = run_round(cfg);

  std::map<std::string, std::uint64_t> journal_counts;
  for (const auto& rec : r.trace.journal.records()) {
    ++journal_counts[std::string(r.trace.journal.name(rec))];
  }
  ASSERT_FALSE(journal_counts.empty());

  std::uint64_t journal_total = 0;
  for (const auto& [name, n] : journal_counts) {
    journal_total += n;
    EXPECT_EQ(r.metrics.counter("kernel.syscalls." + name), n) << name;
  }
  EXPECT_EQ(r.metrics.counter("kernel.syscalls"), journal_total);
  // No per-op counter without journal backing: the sum over every
  // "kernel.syscalls.<op>" key equals the total too.
  std::uint64_t metric_total = 0;
  for (const auto& [name, v] : r.metrics.counters()) {
    if (name.rfind("kernel.syscalls.", 0) == 0) metric_total += v;
  }
  EXPECT_EQ(metric_total, journal_total);
}

TEST(MetricsConservationTest, SemWaitHistogramMatchesTrace) {
  // Semaphore waits are recorded twice at the same wake() site: as a
  // trace segment (category sem_wait, label "sem:<name>") and as a
  // histogram sample. Count and total span must match exactly.
  std::uint64_t trace_count = 0;
  std::int64_t trace_span_ns = 0;
  std::uint64_t metric_count = 0;
  std::int64_t metric_sum_ns = 0;
  // Contention is seed-dependent, so aggregate a handful of rounds.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScenarioConfig cfg = smp_vi_config(seed);
    cfg.record_journal = true;
    cfg.record_events = true;
    const RoundResult r = run_round(cfg);
    for (const auto& ev : r.trace.log.events()) {
      if (ev.category == trace::Category::sem_wait &&
          ev.label.rfind("sem:", 0) == 0) {
        ++trace_count;
        trace_span_ns += ev.length().ns();
      }
    }
    if (const metrics::Histogram* h = r.metrics.histogram("fs.sem_wait_ns")) {
      metric_count += h->count();
      metric_sum_ns += h->sum();
    }
  }
  ASSERT_GT(trace_count, 0u) << "expected semaphore contention in 6 rounds";
  EXPECT_EQ(metric_count, trace_count);
  EXPECT_EQ(metric_sum_ns, trace_span_ns);
}

TEST(MetricsConservationTest, PerSemaphoreHistogramsSumToTheAggregate) {
  ScenarioConfig cfg = smp_vi_config(3);
  const CampaignStats stats = run_campaign(cfg, 16);
  const metrics::Histogram* all = stats.metrics.histogram("fs.sem_wait_ns");
  ASSERT_NE(all, nullptr);
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  for (const auto& [name, h] : stats.metrics.histograms()) {
    if (name.rfind("fs.sem_wait_ns.", 0) == 0) {
      count += h.count();
      sum += h.sum();
    }
  }
  EXPECT_EQ(count, all->count());
  EXPECT_EQ(sum, all->sum());
}

TEST(MetricsConservationTest, FaultCountersMatchFaultStats) {
  ScenarioConfig cfg = smp_vi_config(9);
  std::string err;
  ASSERT_TRUE(sim::FaultPlan::parse("error:0.05:errno=eintr,spike:0.05:us=200",
                                    &cfg.faults, &err))
      << err;
  const CampaignStats stats = run_campaign(cfg, 16);
  EXPECT_GT(stats.faults.total_injected(), 0u);
  EXPECT_EQ(stats.metrics.counter("faults.injected.error"),
            stats.faults.errors_injected);
  EXPECT_EQ(stats.metrics.counter("faults.injected.spike"),
            stats.faults.latency_spikes);
  EXPECT_EQ(stats.metrics.counter("faults.retries"), stats.faults.retries);
}

}  // namespace
}  // namespace tocttou::core
