// Input generation. A workload's dataset — the Table-I analog graph and,
// where the workload has one, its fixed pair set — comes from one fixed
// dataset seed, the way the paper's datasets are fixed files. The
// benchmark seed draws the traffic on it: cold_pairs' never-seen pairs,
// warm_sweep's query order, serving_zipf's arrivals and popularity draws.
// Every generator is a pure function of its seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pair_sampler.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// The seed every dataset is generated from.
inline constexpr std::uint64_t kDatasetSeed = 20190707;

/// What a workload's generated inputs are made of.
struct InputSpec {
  /// Table-I analog passed to af::dataset_spec.
  std::string dataset;
  /// Pairs drawn by af::sample_pairs with the experiments' filter.
  std::size_t pairs = 0;
  /// true: the pairs are traffic, drawn per benchmark seed; false: they
  /// are part of the dataset, drawn once from kDatasetSeed.
  bool seeded_pairs = false;
  /// Embed the exact-threshold alias tables in the container (the
  /// mapped planner adopts them); in-RAM workloads build their own.
  bool index64 = false;
};

/// The experiments' pair protocol: p_max in [0.01, 0.12], 2,000 samples
/// per candidate estimate (bench/exp_common.hpp).
af::PairSamplerConfig experiment_pair_config();

/// Derives the generator stream of one input kind from a seed, so the
/// dataset, the pairs and the traffic draw independently.
af::Rng input_rng(std::uint64_t seed, std::uint64_t stream);

/// Draws `count` distinct pairs with the experiments' filter from four
/// independent streams of `seed`, sampled concurrently; the result
/// depends on the seed only.
std::vector<af::SampledPair> sample_pairs_seeded(const af::Graph& g,
                                                 std::size_t count,
                                                 std::uint64_t seed);

/// Path of the dataset container inside an input directory.
std::string dataset_path(const std::string& dir);

/// Path of the pair list a run with `seed` reads.
std::string pairs_path(const InputSpec& spec, std::uint64_t seed,
                       const std::string& dir);

/// Writes what is missing in `dir`: the dataset container, then the pair
/// list pairs_path() names.
void generate_inputs(const InputSpec& spec, std::uint64_t seed,
                     const std::string& dir);

/// Reads a pair list. Throws std::runtime_error when it is missing or
/// malformed.
std::vector<af::SampledPair> read_pairs(const std::string& path);

/// Zipf(s) over ranks [0, n): rank r has weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  /// The probability of rank r.
  double p(std::size_t r) const;
  /// `count` draws by systematic sampling: one seeded offset u, the ranks
  /// at CDF positions (u + k) / count, then a seeded shuffle. Rank r
  /// appears floor or ceil of count * p(r) times (count * p(r) in
  /// expectation), so the pair mix of a stretch of traffic varies far
  /// less between seeds than with independent draws; the seed draws which
  /// tail ranks appear and the order.
  std::vector<std::size_t> systematic(std::size_t count, af::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Poisson arrivals at `rate` per second over [0, seconds): the send
/// offsets in seconds, ascending.
std::vector<double> poisson_arrivals(double rate, double seconds,
                                     af::Rng& rng);

}  // namespace perfbench
