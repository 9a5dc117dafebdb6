#include "tocttou/detect/cross_check.h"

#include <map>
#include <mutex>
#include <utility>

#include "tocttou/common/error.h"
#include "tocttou/common/strings.h"

namespace tocttou::detect {
namespace {

struct LeafFacts {
  bool landed = false;
  bool flagged = false;  // >= 1 finding on the watched path
  DetectReport report;
};

}  // namespace

CrossCheckResult cross_check(const core::ScenarioConfig& cfg,
                             const explore::ExploreConfig& ecfg) {
  TOCTTOU_CHECK(ecfg.mode == explore::ExploreMode::exhaustive,
                "cross_check needs exhaustive leaves (PCT has no "
                "leaf_observer stream)");

  core::ScenarioConfig dcfg = cfg;
  dcfg.detect = true;

  // Leaves arrive concurrently from worker threads; key by serialized
  // replay token (unique per leaf, memoized leaves fire once) and
  // reduce in sorted-key order afterwards for jobs-invariance.
  std::map<std::string, LeafFacts> leaves;
  std::mutex mu;
  explore::ExploreConfig ec = ecfg;
  auto chained = ecfg.leaf_observer;
  ec.leaf_observer = [&](const std::string& key,
                         const core::RoundResult& r) {
    if (chained) chained(key, r);
    LeafFacts f;
    f.landed = r.success;
    for (const RaceFinding& fd : r.detect.findings) {
      if (fd.path == core::kWatchedPath) f.flagged = true;
    }
    f.report = r.detect;
    std::lock_guard<std::mutex> lock(mu);
    leaves.emplace(key, std::move(f));
  };

  CrossCheckResult out;
  out.explore = explore::explore(dcfg, ec);

  for (const auto& [key, f] : leaves) {
    ++out.leaves;
    out.report.merge(f.report);
    if (f.flagged) ++out.flagged;
    if (f.landed) {
      ++out.landed;
      if (f.flagged) {
        ++out.landed_flagged;
      } else if (static_cast<int>(out.violations.size()) <
                 kMaxViolationTokens) {
        out.violations.push_back(key);
      }
    } else if (f.flagged) {
      ++out.flagged_not_landed;
      for (const RaceFinding& fd : f.report.findings) {
        if (fd.path != core::kWatchedPath) continue;
        ++out.fp_justifications[fd.pair_key() + "|" + fd.justification()];
      }
    }
  }
  return out;
}

std::string CrossCheckResult::summary() const {
  std::string out = strfmt(
      "leaves=%d landed=%d landed-flagged=%d/%d flagged=%d "
      "flagged-not-landed=%d violations=%d",
      leaves, landed, landed_flagged, landed, flagged, flagged_not_landed,
      static_cast<int>(landed - landed_flagged));
  if (!fp_justifications.empty()) {
    out += "\nfalse-positive audit (flagged leaves where the attack lost):";
    for (const auto& [k, v] : fp_justifications) {
      out += strfmt("\n  %s x%llu", k.c_str(),
                    static_cast<unsigned long long>(v));
    }
  }
  return out;
}

}  // namespace tocttou::detect
