#include "checks.hpp"

#include <cmath>
#include <fstream>
#include <variant>

#include "core/pair_sampler.hpp"
#include "diffusion/montecarlo.hpp"
#include "diffusion/sampling_index.hpp"
#include "gen.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::string check_answer(const af::QuerySpec& spec,
                         const af::PlanResult& result) {
  if (!result.ok()) {
    return std::string("status ") + af::to_string(result.status) + ": " +
           result.message;
  }
  if (!result.invitation.contains(spec.t)) return "t is not in I";
  if (const auto* max = std::get_if<af::MaximizeSpec>(&spec.mode)) {
    if (result.invitation.size() > max->budget) return "|I| exceeds budget";
    if (!(result.sample_coverage > 0.0 && result.sample_coverage <= 1.0)) {
      return "sample coverage outside (0, 1]";
    }
    return "";
  }
  if (result.diag.coverage_target < 1) return "coverage target below 1";
  if (result.diag.covered < result.diag.coverage_target) {
    return "covered below coverage target";
  }
  return "";
}

void Digest::mix(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
}

void Digest::add(const af::QuerySpec& spec, const af::PlanResult& result,
                 std::span<const af::NodeId> members) {
  mix(&spec.s, sizeof spec.s);
  mix(&spec.t, sizeof spec.t);
  if (const auto* min = std::get_if<af::MinimizeSpec>(&spec.mode)) {
    mix(&min->alpha, sizeof min->alpha);
    mix(&min->max_realizations, sizeof min->max_realizations);
  } else {
    const auto& max = std::get<af::MaximizeSpec>(spec.mode);
    mix(&max.budget, sizeof max.budget);
    mix(&max.realizations, sizeof max.realizations);
  }
  mix(&result.status, sizeof result.status);
  const std::size_t size = members.size();
  mix(&size, sizeof size);
  mix(members.data(), members.size_bytes());
  mix(&result.sample_coverage, sizeof result.sample_coverage);
  mix(&result.diag.covered, sizeof result.diag.covered);
}

bool check_digest_file(const std::string& path, std::uint64_t digest) {
  {
    std::ifstream in(path);
    std::uint64_t stored = 0;
    if (in >> std::hex >> stored) return stored == digest;
  }
  std::ofstream out(path);
  out << std::hex << digest << "\n";
  return static_cast<bool>(out.flush());
}

TheoremCheck estimate_quality(const af::FriendingInstance& inst,
                              const af::SelectionSampler& sel,
                              const af::MinimizeSpec& spec,
                              const af::InvitationSet& invited, double pmax,
                              double pmax_epsilon, std::uint64_t samples,
                              std::uint64_t seed) {
  af::MonteCarloEvaluator mc(inst, sel);
  af::Rng rng(seed);
  const af::Proportion f = mc.estimate_f(invited, samples, rng);
  TheoremCheck out;
  out.f_hat = f.estimate();
  out.sigma = std::sqrt(out.f_hat * (1.0 - out.f_hat) /
                        static_cast<double>(samples));
  out.target = (spec.alpha - spec.epsilon) * pmax / (1.0 + pmax_epsilon);
  out.ok = out.f_hat + 4.0 * out.sigma >= out.target;
  return out;
}

bool theorem1_spot_check(std::uint64_t seed, std::string& note) {
  af::Rng rng = input_rng(seed, 5);
  const af::Graph g = af::barabasi_albert(60, 2, rng)
                          .build(af::WeightScheme::inverse_degree());
  af::PairSamplerConfig pairs = experiment_pair_config();
  pairs.pmax_threshold = 0.2;
  pairs.pmax_upper = 1.0;
  const auto pair = af::sample_pair(g, pairs, rng);
  if (!pair) {
    note = "Theorem 1 spot check: no pair with p_max >= 0.2";
    return false;
  }
  af::PlannerOptions options;
  options.threads = 1;
  af::Planner planner(g, options);
  const af::MinimizeSpec spec{.alpha = 0.3, .epsilon = 0.1,
                              .max_realizations = 0};
  const af::PlanResult r = planner.plan({pair->s, pair->t, spec});
  char line[200];
  if (!r.ok()) {
    std::snprintf(line, sizeof line, "Theorem 1 spot check: status %s",
                  af::to_string(r.status));
    note = line;
    return false;
  }
  const af::FriendingInstance inst(g, pair->s, pair->t);
  const af::SamplingIndex index(g);
  const TheoremCheck c =
      estimate_quality(inst, index, spec, r.invitation, r.diag.pmax.estimate,
                       options.pmax_epsilon, 200'000, seed);
  // l is l* rounded down to a whole realization count.
  const bool full_l =
      static_cast<double>(r.diag.l_used) >= std::floor(r.diag.l_star);
  std::snprintf(line, sizeof line,
                "Theorem 1 spot check (%u,%u) l=%llu l*=%.0f: f(I)=%.5f "
                "+- %.5f vs (a-e)p/(1+e0)=%.5f",
                pair->s, pair->t,
                static_cast<unsigned long long>(r.diag.l_used),
                r.diag.l_star, c.f_hat, c.sigma, c.target);
  note = line;
  return full_l && c.ok;
}

}  // namespace perfbench
