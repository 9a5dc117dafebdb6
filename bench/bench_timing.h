// Timing helpers shared by the self-profiling benches, which time units
// of work in passes of about a second, interleaved pass by pass, and
// report each unit's median and quartiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "tocttou/common/stats.h"
#include "tocttou/common/strings.h"

namespace tocttou::bench {

/// Units per pass: runs `run(n)` from n = `start`, doubling n until a
/// run lasts a tenth of `seconds`, then scales n to `seconds` (a
/// multiple of `start`, which for campaigns is the engine's 8-round
/// block). The doubling doubles as the warm-up.
inline long long size_pass(const std::function<void(long long)>& run,
                           long long start, double seconds) {
  using Clock = std::chrono::steady_clock;
  long long n = start;
  while (true) {
    const auto t0 = Clock::now();
    run(n);
    const double sec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (sec >= seconds / 10) {
      const auto want = static_cast<long long>(n * seconds / sec);
      return std::max(start, want / start * start);
    }
    n *= 2;
  }
}

/// `{"median": m, "p25": a, "p75": b}` of `s`, at `decimals` places.
inline std::string quartiles(const Samples& s, int decimals) {
  return strfmt("{\"median\": %.*f, \"p25\": %.*f, \"p75\": %.*f}",
                decimals, s.median(), decimals, s.quantile(0.25), decimals,
                s.quantile(0.75));
}

}  // namespace tocttou::bench
