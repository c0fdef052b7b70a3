#pragma once
// Pure helpers of the benchmark: sample summaries, the percentile-support
// rule and metric-name validity.  Header-only so `perfbench --selftest`
// checks exactly the code the measurements use.

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median and first/third quartiles of a sample.  The quartiles follow
/// Python's statistics.quantiles(values, n=4) (the default "exclusive"
/// method), so a spread computed here matches one computed from the
/// printed values with the standard library.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;

  /// Interquartile distance as a share of the median (0 when undefined).
  double spread() const { return median != 0.0 ? (q3 - q1) / median : 0.0; }
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  // statistics.quantiles, method="exclusive": m = n + 1; for i in 1..3,
  // j = i*m // 4 clamped to [1, n-1], then delta = i*m - 4j (which the
  // clamp can push outside [0, 4]: Python extrapolates, and so does this),
  // q_i = (v[j-1]*(4-delta) + v[j]*delta) / 4.
  const auto q = [&](long i) {
    const long len = static_cast<long>(n);
    const long m = len + 1;
    const long j = std::clamp(i * m / 4, 1L, len - 1);
    const long delta = i * m - 4 * j;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = q(1);
  s.q3 = q(3);
  return s;
}

/// The percentiles a tail metric may be reported at, lowest first.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

/// Expected number of samples strictly beyond percentile p of n samples.
inline double samples_beyond(std::size_t n, double p) {
  return static_cast<double>(n) * (100.0 - p) / 100.0;
}

/// The highest ladder percentile that leaves at least `min_beyond` samples
/// beyond it, or 0 when even the median is unsupported.  A tail figure is
/// only reported at a percentile this returns (or a lower one).
inline double highest_supported_percentile(std::size_t n, double min_beyond = 10.0) {
  double best = 0.0;
  for (double p : kPercentileLadder) {
    // The epsilon absorbs the binary representation of 99.9 and 99.99.
    if (samples_beyond(n, p) + 1e-9 >= min_beyond) best = p;
  }
  return best;
}

/// A metric name as the result file accepts it: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
