// Order statistics over a workload's samples. One quantile definition is
// used everywhere (linear interpolation between closest ranks, the common
// "type 7" estimator), so medians, tail percentiles and quartiles in every
// report agree with each other; --selftest pins it to hand-computed values.
#ifndef BGPCU_BENCH_PIPELINE_STATS_H
#define BGPCU_BENCH_PIPELINE_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace bgpcu::benchpipe {

/// The q-quantile (q in [0, 1]) of ascending `sorted`; 0 when empty.
[[nodiscard]] inline double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double h = static_cast<double>(sorted.size() - 1) * std::clamp(q, 0.0, 1.0);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// Distribution of one metric's samples.
struct Summary {
  std::size_t n = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double q1 = 0;
  double q3 = 0;
};

[[nodiscard]] inline Summary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = values.size();
  for (const double v : values) s.mean += v;
  if (s.n > 0) s.mean /= static_cast<double>(s.n);
  s.p50 = quantile_sorted(values, 0.50);
  s.p90 = quantile_sorted(values, 0.90);
  s.p99 = quantile_sorted(values, 0.99);
  s.q1 = quantile_sorted(values, 0.25);
  s.q3 = quantile_sorted(values, 0.75);
  return s;
}

}  // namespace bgpcu::benchpipe

#endif  // BGPCU_BENCH_PIPELINE_STATS_H
