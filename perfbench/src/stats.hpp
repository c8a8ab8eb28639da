// Summary statistics the benchmark reports: medians, the tail percentile
// rule, and quartiles that match Python's statistics.quantiles.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// The highest percentile that still has at least ten samples above it.
struct TailPercentile {
  /// Percentile in (0, 100): 100·(n − 10)/n.
  double percentile = 0.0;
  /// The sample at that rank: the (n − 10)-th smallest.
  double value = 0.0;
  /// Samples in the population.
  std::size_t samples = 0;
};

/// The minimum population the tail rule needs: one sample at the
/// percentile plus ten beyond it.
inline constexpr std::size_t kMinTailSamples = 11;

/// Applies the ten-beyond rule to `values` (any order). Non-finite values
/// (failed answers counted as +inf) sort last. Throws
/// std::invalid_argument with fewer than kMinTailSamples values.
TailPercentile tail_percentile(std::vector<double> values);

/// Cut points dividing `values` into n groups, Python's
/// statistics.quantiles(values, n=n) with its default "exclusive" method.
/// Needs at least two values and n >= 2.
std::vector<double> quantiles(std::vector<double> values, int n = 4);

}  // namespace perfbench
