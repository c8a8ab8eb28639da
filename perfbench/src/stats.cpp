#include "stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

TailPercentile tail_percentile(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < kMinTailSamples) {
    throw std::invalid_argument(
        "tail percentile needs at least 11 samples (one plus ten beyond)");
  }
  std::sort(values.begin(), values.end());
  TailPercentile out;
  out.samples = n;
  out.value = values[n - 11];
  out.percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return out;
}

std::vector<double> quantiles(std::vector<double> values, int n) {
  if (n < 2) throw std::invalid_argument("quantiles need n >= 2");
  const auto ld = static_cast<long long>(values.size());
  if (ld < 2) throw std::invalid_argument("quantiles need two values");
  std::sort(values.begin(), values.end());
  const long long m = ld + 1;
  std::vector<double> cuts;
  for (long long i = 1; i < n; ++i) {
    const long long j = std::clamp(i * m / n, 1LL, ld - 1);
    const long long delta = i * m - j * n;
    cuts.push_back((values[static_cast<std::size_t>(j - 1)] *
                        static_cast<double>(n - delta) +
                    values[static_cast<std::size_t>(j)] *
                        static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

}  // namespace perfbench
