#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <future>

#include "core/datasets.hpp"
#include "storage/convert.hpp"
#include "storage/mapped_dataset.hpp"

namespace perfbench {

af::PairSamplerConfig experiment_pair_config() {
  af::PairSamplerConfig cfg;
  cfg.pmax_threshold = 0.01;
  cfg.pmax_upper = 0.12;
  cfg.estimate_samples = 2'000;
  return cfg;
}

af::Rng input_rng(std::uint64_t seed, std::uint64_t stream) {
  af::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return af::Rng(mix.next());
}

std::vector<af::SampledPair> sample_pairs_seeded(const af::Graph& g,
                                                 std::size_t count,
                                                 std::uint64_t seed) {
  // Four streams, fixed whatever the host's CPU count, so the pairs never
  // depend on it. A few spares cover pairs two streams both drew.
  constexpr std::size_t kStreams = 4;
  const std::size_t per_stream = (count + kStreams - 1) / kStreams + 2;
  std::vector<std::future<std::vector<af::SampledPair>>> streams;
  for (std::size_t i = 0; i < kStreams; ++i) {
    streams.push_back(std::async(std::launch::async, [&g, per_stream, seed, i] {
      af::Rng rng = input_rng(seed, 10 + i);
      return af::sample_pairs(g, per_stream, experiment_pair_config(), rng);
    }));
  }
  std::vector<std::vector<af::SampledPair>> drawn;
  for (auto& stream : streams) drawn.push_back(stream.get());
  // Interleave the streams so any prefix mixes all four.
  std::vector<af::SampledPair> out;
  std::set<std::pair<af::NodeId, af::NodeId>> seen;
  for (std::size_t k = 0; k < per_stream && out.size() < count; ++k) {
    for (std::size_t i = 0; i < kStreams && out.size() < count; ++i) {
      if (k >= drawn[i].size()) continue;
      const af::SampledPair& p = drawn[i][k];
      if (seen.emplace(p.s, p.t).second) out.push_back(p);
    }
  }
  if (out.size() < count) {
    throw std::runtime_error("pair sampler accepted only " +
                             std::to_string(out.size()) + " of " +
                             std::to_string(count) + " pairs");
  }
  return out;
}

std::string dataset_path(const std::string& dir) {
  return dir + "/dataset.af1";
}

std::string pairs_path(const InputSpec& spec, std::uint64_t seed,
                       const std::string& dir) {
  return spec.seeded_pairs ? dir + "/pairs-" + std::to_string(seed) + ".txt"
                           : dir + "/pairs.txt";
}

void generate_inputs(const InputSpec& spec, std::uint64_t seed,
                     const std::string& dir) {
  if (!std::filesystem::exists(dataset_path(dir))) {
    af::Rng graph_rng = input_rng(kDatasetSeed, 1);
    const af::Graph g =
        af::make_dataset(af::dataset_spec(spec.dataset), graph_rng);
    af::storage::ConvertOptions options;
    options.index64 = spec.index64;
    options.index32 = false;
    // The writer itself publishes through a temporary file.
    af::storage::write_container(g, dataset_path(dir), options);
  }
  const std::string path = pairs_path(spec, seed, dir);
  if (std::filesystem::exists(path)) return;
  // Pairs are drawn on the graph exactly as the workload will load it.
  const af::storage::MappedDataset mapped(dataset_path(dir));
  const auto pairs = sample_pairs_seeded(
      mapped.graph(), spec.pairs, spec.seeded_pairs ? seed : kDatasetSeed);
  // Written under a temporary name and renamed into place, so a pair
  // list under the real name is always complete.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    char line[96];
    for (const auto& p : pairs) {
      std::snprintf(line, sizeof line, "%u %u %.17g\n", p.s, p.t,
                    p.pmax_estimate);
      out << line;
    }
    if (!out.flush()) throw std::runtime_error("cannot write " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

std::vector<af::SampledPair> read_pairs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing " + path);
  std::vector<af::SampledPair> pairs;
  af::SampledPair p;
  while (in >> p.s >> p.t >> p.pmax_estimate) pairs.push_back(p);
  if (!in.eof() || pairs.empty()) {
    throw std::runtime_error("malformed " + path);
  }
  return pairs;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

double Zipf::p(std::size_t r) const {
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

std::vector<std::size_t> Zipf::systematic(std::size_t count,
                                          af::Rng& rng) const {
  std::vector<std::size_t> out;
  out.reserve(count);
  const double u = rng.uniform();
  auto it = cdf_.begin();
  for (std::size_t k = 0; k < count; ++k) {
    const double x = (u + static_cast<double>(k)) / static_cast<double>(count);
    it = std::upper_bound(it, cdf_.end(), x);
    out.push_back(std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1));
  }
  rng.shuffle(out);
  return out;
}

std::vector<double> poisson_arrivals(double rate, double seconds,
                                     af::Rng& rng) {
  std::vector<double> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) return out;
    out.push_back(t);
  }
}

}  // namespace perfbench
