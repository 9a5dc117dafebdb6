// Deterministic metrics registry: counters, gauges, and fixed-bucket
// histograms, all integer-valued so that merging per-round snapshots in
// any grouping produces bit-identical results (no floating accumulation
// order issues). This is the first-class home for the event accounting
// the paper's kernel tracer provided — syscall counts, context switches,
// inode-semaphore waits — which previous PRs only had as raw traces.
//
// Zero-overhead-when-disabled contract: producers (Kernel, Vfs, harness)
// hold a `Registry*` that defaults to nullptr, and every instrumentation
// site is a single pointer check. With no registry attached, simulation
// output is byte-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

namespace tocttou::metrics {

/// Fixed power-of-two-bucket histogram over non-negative integer samples
/// (negative samples clamp to 0). Bucket i counts samples whose value v
/// satisfies bucket_floor(i) <= v <= bucket_ceil(i); bucket 0 holds v in
/// [0, 1], bucket i >= 1 holds [2^i, 2^(i+1) - 1], and the last bucket is
/// unbounded above. count/sum/min/max are exact integers, so merge() is
/// associative and commutative — the property the --jobs-invariance of
/// campaign metrics rests on.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void observe(std::int64_t v);
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  /// Smallest / largest observed sample (0 when empty).
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  std::uint64_t bucket(int i) const;
  double mean() const;

  /// Bucket index a sample lands in.
  static int bucket_index(std::int64_t v);
  /// Inclusive upper bound of bucket i (INT64_MAX for the last bucket).
  static std::int64_t bucket_ceil(int i);

 private:
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// Named metric store. Producers update it during a round; the harness
/// treats a filled registry as the round's immutable snapshot and folds
/// it through CampaignStats with merge(), exactly like the other
/// campaign accumulators. Keys live in sorted std::maps, so JSON and CSV
/// exports are deterministic byte-for-byte. The maps look keys up by
/// view, so an update to an existing key allocates nothing; only a new
/// key copies its name.
class Registry {
 public:
  /// Adds `delta` to counter `name` (creating it at zero).
  void count(std::string_view name, std::uint64_t delta = 1);
  /// Raises gauge `name` to `v` if larger (gauges merge by max — the
  /// only gauge reduction that is order-independent).
  void gauge_max(std::string_view name, std::int64_t v);
  /// Records `v` into histogram `name`.
  void observe(std::string_view name, std::int64_t v);

  /// Folds `other` into this registry (counters add, gauges max,
  /// histograms add bucket-wise). Associative and commutative.
  void merge(const Registry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Lookup helpers for tests and conservation checks.
  std::uint64_t counter(const std::string& name) const;
  std::int64_t gauge(const std::string& name) const;
  const Histogram* histogram(const std::string& name) const;

  const auto& counters() const { return counters_; }
  const auto& gauges() const { return gauges_; }
  const auto& histograms() const { return histograms_; }

  /// JSON export: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with keys in sorted order and histogram buckets as sparse
  /// [ceil, count] pairs. Deterministic byte-for-byte.
  std::string to_json() const;

  /// RFC 4180 CSV export, one row per scalar:
  ///   type,name,field,value
  /// Histograms emit count/sum/min/max rows plus one bucket_le_<ceil>
  /// row per non-empty bucket. Names are csv_escape()d.
  std::string to_csv() const;

 private:
  template <typename T>
  using Map = std::map<std::string, T, std::less<>>;

  Map<std::uint64_t> counters_;
  Map<std::int64_t> gauges_;
  Map<Histogram> histograms_;
};

}  // namespace tocttou::metrics
