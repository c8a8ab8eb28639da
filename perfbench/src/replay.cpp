#include "replay.hpp"

#include <algorithm>
#include <variant>

#include "core/maximizer.hpp"
#include "core/raf.hpp"
#include "core/vmax.hpp"
#include "cover/mpu.hpp"
#include "diffusion/bulk_sampler.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::uint64_t pair_key(af::NodeId s, af::NodeId t) {
  return (static_cast<std::uint64_t>(s) << 32) | t;
}

/// The planner's pool-growth chunk (core/planner.cpp): replaying growth in
/// the same chunks keeps the sampling work per call comparable.
constexpr std::uint64_t kGrowthChunk = 64 * 1024;

}  // namespace

Replayer::Replayer(const af::Graph& graph, const af::SelectionSampler& sel,
                   const af::PlannerOptions& options,
                   std::size_t sample_threads, Tracer& tracer)
    : graph_(graph),
      sel_(sel),
      options_(options),
      pool_(sample_threads),
      tracer_(tracer) {}

Replayer::Pair& Replayer::reset_pair(const af::QuerySpec& spec,
                                     bool traced) {
  Pair& pair = pairs_[pair_key(spec.s, spec.t)];
  pair = Pair{};
  {
    std::optional<Tracer::Scope> span;
    if (traced) span.emplace(tracer_, "diffusion.instance");
    pair.inst =
        std::make_unique<af::FriendingInstance>(graph_, spec.s, spec.t);
  }
  pair.stream_root =
      af::Rng(af::Planner::derive_pool_seed(options_.base_seed, spec.s,
                                            spec.t))
          .next_u64();
  return pair;
}

void Replayer::ensure_vmax(Pair& pair, bool traced) {
  if (pair.vmax_size) return;
  if (!traced) {
    pair.vmax_size = af::compute_vmax(*pair.inst).size();
    return;
  }
  Tracer::Scope span(tracer_, "core.vmax");
  pair.vmax_size = af::compute_vmax(*pair.inst).size();
  span.set_counts(graph_.num_nodes(), *pair.vmax_size);
}

void Replayer::ensure_pmax(Pair& pair, bool traced) {
  if (pair.pmax) return;
  af::DklrConfig cfg;
  cfg.epsilon = options_.pmax_epsilon;
  cfg.delta = options_.pmax_delta;
  cfg.max_samples = options_.pmax_max_samples;
  af::Rng rng(af::Planner::derive_pmax_seed(options_.base_seed,
                                            pair.inst->initiator(),
                                            pair.inst->target()));
  if (!traced) {
    pair.pmax = af::estimate_pmax_dklr(*pair.inst, sel_, rng, cfg, &pool_);
    return;
  }
  Tracer::Scope span(tracer_, "diffusion.dklr");
  pair.pmax = af::estimate_pmax_dklr(*pair.inst, sel_, rng, cfg, &pool_);
  span.set_counts(pair.pmax->samples_drawn, pair.pmax->samples_used);
}

void Replayer::grow(Pair& pair, std::uint64_t l, bool traced) {
  while (pair.drawn < l) {
    const std::uint64_t want = std::min(kGrowthChunk, l - pair.drawn);
    std::optional<Tracer::Scope> span;
    if (traced) span.emplace(tracer_, "diffusion.pool_grow");
    const af::BulkType1Paths grown = af::sample_type1_bulk(
        *pair.inst, sel_, pair.drawn, want, pair.stream_root, &pool_);
    pair.paths.append(grown.paths);
    pair.positions.insert(pair.positions.end(), grown.positions.begin(),
                          grown.positions.end());
    pair.drawn += want;
    if (span) span->set_counts(want, grown.positions.size());
  }
}

af::SetFamily Replayer::build_family(const Pair& pair, std::uint64_t l) {
  Tracer::Scope span(tracer_, "cover.family_build");
  af::SetFamily family(graph_.num_nodes());
  std::size_t k = 0;
  for (; k < pair.positions.size() && pair.positions[k] < l; ++k) {
    family.add_set(pair.paths[k]);
  }
  span.set_counts(k, family.num_sets());
  return family;
}

ReplayedAnswer Replayer::replay(std::int64_t query,
                                const af::QuerySpec& spec,
                                const af::StageTimings& timings) {
  tracer_.set_query(query);
  Tracer::Scope root(tracer_, "core.plan");
  ReplayedAnswer out;
  auto found = pairs_.find(pair_key(spec.s, spec.t));
  Pair* pair = found == pairs_.end() ? nullptr : &found->second;
  if (!timings.vmax_cache_hit) {
    // The planner built this pair anew (first sight or after an
    // eviction): so does the replay.
    pair = &reset_pair(spec, true);
    ensure_vmax(*pair, true);
  } else if (pair == nullptr || !pair->vmax_size) {
    Tracer::Scope catchup(tracer_, "replay.catchup");
    if (pair == nullptr) pair = &reset_pair(spec, false);
    ensure_vmax(*pair, false);
  }
  // Pool samples the planner already held are the replay's catch-up; the
  // ones it drew for this query are the replay's growth.
  if (pair->drawn < timings.pool_reused) {
    Tracer::Scope catchup(tracer_, "replay.catchup");
    grow(*pair, timings.pool_reused, false);
  }

  if (const auto* min = std::get_if<af::MinimizeSpec>(&spec.mode)) {
    if (!timings.pmax_cache_hit) {
      pair->pmax.reset();
      ensure_pmax(*pair, true);
    } else if (!pair->pmax) {
      Tracer::Scope catchup(tracer_, "replay.catchup");
      ensure_pmax(*pair, false);
    }
    af::RafConfig cfg;
    cfg.alpha = min->alpha;
    cfg.epsilon = min->epsilon;
    cfg.big_n = min->big_n;
    cfg.policy = min->policy;
    cfg.max_realizations = min->max_realizations;
    cfg.pmax_max_samples = options_.pmax_max_samples;
    cfg.solver = min->solver;
    cfg.local_search = min->local_search;
    cfg.use_vmax_in_l = true;
    const af::RafAlgorithm engine(cfg);
    af::SetFamily kept(0);
    af::RafResult res{af::InvitationSet(0), {}};
    {
      Tracer::Scope raf(tracer_, "core.raf");
      res = engine.run_with_pmax_source(
          *pair->inst, pair->pmax->estimate, *pair->vmax_size,
          [&](std::uint64_t l) {
            grow(*pair, l, true);
            af::SetFamily family = build_family(*pair, l);
            Tracer::Scope copy(tracer_, "replay.family_copy");
            kept = family;
            return family;
          });
    }
    out.members = res.invitation.members();
    out.covered = res.diag.covered;
    if (cfg.solver == af::CoverSolverKind::kGreedy &&
        res.diag.coverage_target > 0) {
      // The greedy/local-search split: both re-run on the family the
      // engine covered, so their times add up to its solve step.
      Tracer::Scope split(tracer_, "replay.split");
      af::MpuResult greedy;
      {
        Tracer::Scope span(tracer_, "cover.greedy");
        greedy = af::GreedyMpuSolver().solve(kept, res.diag.coverage_target);
      }
      if (cfg.local_search) {
        const std::size_t before = greedy.union_elements.size();
        Tracer::Scope span(tracer_, "cover.local_search");
        greedy = af::refine_local_search(kept, res.diag.coverage_target,
                                         std::move(greedy));
        span.set_counts(before, greedy.union_elements.size());
      }
      out.split_agrees = greedy.union_elements == out.members;
    }
    return out;
  }

  const auto& max = std::get<af::MaximizeSpec>(spec.mode);
  grow(*pair, max.realizations, true);
  const af::SetFamily family = build_family(*pair, max.realizations);
  af::MaximizerResult res{af::InvitationSet(0), 0.0, 0};
  {
    Tracer::Scope span(tracer_, "core.maximize");
    res = af::maximize_with_family(*pair->inst, family, max.realizations,
                                   max.budget);
  }
  out.members = res.invitation.members();
  out.sample_coverage = res.sample_coverage;
  return out;
}

}  // namespace perfbench
