// Correctness checks run by every workload: structural checks on each
// answer, an answer digest that must repeat across runs of one seed, and
// a seeded Monte-Carlo spot check of Theorem 1.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/planner.hpp"
#include "diffusion/instance.hpp"
#include "diffusion/realization.hpp"

namespace perfbench {

/// Structural checks on one answer: kOk, t ∈ I, |I| ≤ budget (maximize),
/// covered ≥ coverage_target ≥ 1 (minimize). Returns "" when the answer
/// passes, else what failed.
std::string check_answer(const af::QuerySpec& spec,
                         const af::PlanResult& result);

/// FNV-1a over (s, t, mode, status, invitation set, coverage) of a
/// sequence of answers. `members` is the answer's invitation set.
class Digest {
 public:
  void add(const af::QuerySpec& spec, const af::PlanResult& result,
           std::span<const af::NodeId> members);
  std::uint64_t value() const { return h_; }

 private:
  void mix(const void* data, std::size_t bytes);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Compares `digest` with the one stored at `path` by an earlier run of
/// the same seed, or stores it when there is none. Returns false on a
/// mismatch (or when the file cannot be written).
bool check_digest_file(const std::string& path, std::uint64_t digest);

/// Out-of-sample quality of one minimize answer `invited`, planned with
/// p*max estimate `pmax`: f(I) estimated with
/// `samples` reverse-walk trials against Theorem 1's target
///   (α − ε)·p̂max / (1 + ε_pmax),
/// where ε_pmax is the planner's DKLR tolerance (p̂max ≤ (1 + ε_pmax)·p_max
/// with probability ≥ 1 − δ). `ok` means f̂(I) + 4·σ̂ reaches the target,
/// σ̂ being the binomial standard error of f̂.
struct TheoremCheck {
  double f_hat = 0.0;
  double sigma = 0.0;
  double target = 0.0;
  bool ok = false;
};
TheoremCheck estimate_quality(const af::FriendingInstance& inst,
                              const af::SelectionSampler& sel,
                              const af::MinimizeSpec& spec,
                              const af::InvitationSet& invited, double pmax,
                              double pmax_epsilon, std::uint64_t samples,
                              std::uint64_t seed);

/// The Theorem 1 spot check proper: Theorem 1 assumes l ≥ l* (Eq. 16),
/// which the workloads' capped queries never reach, so the check plans
/// one uncapped minimize query (α = 0.3, ε = 0.1) on a small seeded BA
/// graph, where l* is a few hundred thousand, requires l = l*, and then
/// requires estimate_quality() to pass. Sets `note` to what it measured;
/// returns false on a violation.
bool theorem1_spot_check(std::uint64_t seed, std::string& note);

}  // namespace perfbench
