#include "tocttou/metrics/metrics.h"

#include <bit>
#include <cstdint>
#include <limits>

#include "tocttou/common/strings.h"

namespace tocttou::metrics {

int Histogram::bucket_index(std::int64_t v) {
  if (v <= 1) return 0;
  const int w = std::bit_width(static_cast<std::uint64_t>(v));  // >= 2
  const int idx = w - 1;
  return idx < kBuckets ? idx : kBuckets - 1;
}

std::int64_t Histogram::bucket_ceil(int i) {
  if (i <= 0) return 1;
  if (i >= kBuckets - 1) return std::numeric_limits<std::int64_t>::max();
  return (std::int64_t{1} << (i + 1)) - 1;
}

void Histogram::observe(std::int64_t v) {
  if (v < 0) v = 0;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  ++buckets_[bucket_index(v)];
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

std::uint64_t Histogram::bucket(int i) const {
  return (i >= 0 && i < kBuckets) ? buckets_[i] : 0;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

namespace {

/// The value of `name` in `m`, inserted as `init` when absent; an
/// existing key is found by view, without building a string.
template <typename Map>
typename Map::mapped_type& slot(Map& m, std::string_view name,
                                typename Map::mapped_type init = {}) {
  auto it = m.lower_bound(name);
  if (it == m.end() || it->first != name) {
    it = m.emplace_hint(it, std::string(name), std::move(init));
  }
  return it->second;
}

}  // namespace

void Registry::count(std::string_view name, std::uint64_t delta) {
  slot(counters_, name) += delta;
}

void Registry::gauge_max(std::string_view name, std::int64_t v) {
  std::int64_t& g = slot(gauges_, name, v);
  if (v > g) g = v;
}

void Registry::observe(std::string_view name, std::int64_t v) {
  slot(histograms_, name).observe(v);
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauge_max(name, v);
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

std::uint64_t Registry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t Registry::gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const Histogram* Registry::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

namespace {

/// Minimal JSON string escaping: the metric names are ASCII identifiers
/// in practice, but quotes/backslashes/control bytes must not corrupt
/// the document.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string Registry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    out += strfmt("%s\n    \"%s\": %llu", first ? "" : ",",
                  json_escape(name).c_str(),
                  static_cast<unsigned long long>(v));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    out += strfmt("%s\n    \"%s\": %lld", first ? "" : ",",
                  json_escape(name).c_str(), static_cast<long long>(v));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += strfmt(
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %lld, \"min\": %lld, "
        "\"max\": %lld, \"buckets\": [",
        first ? "" : ",", json_escape(name).c_str(),
        static_cast<unsigned long long>(h.count()),
        static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
        static_cast<long long>(h.max()));
    bool bfirst = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket(i) == 0) continue;
      out += strfmt("%s[%lld, %llu]", bfirst ? "" : ", ",
                    static_cast<long long>(Histogram::bucket_ceil(i)),
                    static_cast<unsigned long long>(h.bucket(i)));
      bfirst = false;
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string Registry::to_csv() const {
  std::string out = "type,name,field,value\r\n";
  for (const auto& [name, v] : counters_) {
    out += strfmt("counter,%s,value,%llu\r\n", csv_escape(name).c_str(),
                  static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : gauges_) {
    out += strfmt("gauge,%s,value,%lld\r\n", csv_escape(name).c_str(),
                  static_cast<long long>(v));
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = csv_escape(name);
    out += strfmt("histogram,%s,count,%llu\r\n", n.c_str(),
                  static_cast<unsigned long long>(h.count()));
    out += strfmt("histogram,%s,sum,%lld\r\n", n.c_str(),
                  static_cast<long long>(h.sum()));
    out += strfmt("histogram,%s,min,%lld\r\n", n.c_str(),
                  static_cast<long long>(h.min()));
    out += strfmt("histogram,%s,max,%lld\r\n", n.c_str(),
                  static_cast<long long>(h.max()));
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket(i) == 0) continue;
      out += strfmt("histogram,%s,bucket_le_%lld,%llu\r\n", n.c_str(),
                    static_cast<long long>(Histogram::bucket_ceil(i)),
                    static_cast<unsigned long long>(h.bucket(i)));
    }
  }
  return out;
}

}  // namespace tocttou::metrics
