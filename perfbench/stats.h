// Copyright (c) SkyBench-NG contributors.
// Order statistics of the repository benchmark: percentile selection,
// medians and quartiles over timing samples. Header-only so the benchmark
// and its self-test share one definition.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it (p in (0, 100]). Always returns an
/// observed sample, never an interpolation. Throws on an empty input.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of nothing");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("bad percentile");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Fewest samples for which `p` is a reportable percentile: at least ten
/// samples must lie beyond it (p90 needs 100, p99 needs 1000).
inline size_t MinSamplesFor(double p) {
  return static_cast<size_t>(std::ceil(10.0 * 100.0 / (100.0 - p) - 1e-9));
}

/// Median; the mean of the two middle samples for an even count. Throws
/// on an empty input.
inline double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of nothing");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the method of Python's statistics.quantiles(data, n=4)
/// (the default "exclusive" method), so spreads computed here match the
/// ones a Python reader of the results computes. Needs two samples.
inline Quartiles QuartilesOf(std::vector<double> values) {
  if (values.size() < 2) throw std::invalid_argument("quartiles need two");
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long m = n + 1;
  const auto cut = [&](long i) {
    // Python: j = clamp(i*m // 4, 1, n-1); delta = i*m - 4*j; interpolate
    // between the 1-based j-th and (j+1)-th order statistics.
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const double delta = static_cast<double>(i * m - 4 * j);
    return (values[static_cast<size_t>(j - 1)] * (4.0 - delta) +
            values[static_cast<size_t>(j)] * delta) /
           4.0;
  };
  return Quartiles{cut(1), cut(2), cut(3)};
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
