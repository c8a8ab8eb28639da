// The traced replay: re-executes planner answers through the layers'
// public functions, one span around each call, so the caller can check
// that every replayed invitation set equals the planner's bit for bit.
//
// The replay mirrors the planner's per-pair caches: it keeps each pair's
// instance, |V_max|, p*max estimate and realization pool, and takes the
// planner's own StageTimings cache flags as the hit/miss verdict of each
// query, so it does the work the planner did — no more, no less. When the
// planner hit a cache the replay has not filled (the replay skipped the
// query that filled it), the replay fills it under a "replay.catchup"
// span, which counts toward no layer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/planner.hpp"
#include "diffusion/dklr.hpp"
#include "diffusion/instance.hpp"
#include "diffusion/path_arena.hpp"
#include "diffusion/realization.hpp"
#include "graph/graph.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// What the replay produced for one query.
struct ReplayedAnswer {
  std::vector<af::NodeId> members;
  double sample_coverage = 0.0;
  std::uint64_t covered = 0;
  /// Minimize: greedy + local search re-run on the engine's family
  /// reproduced the engine's invitation set.
  bool split_agrees = true;
};

class Replayer {
 public:
  /// `sel` must draw exactly as the planner's index does (same tables);
  /// `sample_threads` sizes the bulk-sampling pool like the planner's.
  Replayer(const af::Graph& graph, const af::SelectionSampler& sel,
           const af::PlannerOptions& options, std::size_t sample_threads,
           Tracer& tracer);

  /// Replays one kOk planner answer under `query` (-1 = set-up work);
  /// `planned` are the stage timings the planner reported for it, whose
  /// cache flags decide what the replay recomputes.
  ReplayedAnswer replay(std::int64_t query, const af::QuerySpec& spec,
                        const af::StageTimings& planned);

 private:
  struct Pair {
    std::unique_ptr<af::FriendingInstance> inst;
    std::optional<std::size_t> vmax_size;
    std::optional<af::DklrResult> pmax;
    std::uint64_t stream_root = 0;
    std::uint64_t drawn = 0;
    af::PathArena paths;
    std::vector<std::uint64_t> positions;
  };

  /// Starts the pair over: a new instance and an empty pool.
  Pair& reset_pair(const af::QuerySpec& spec, bool traced);
  void ensure_vmax(Pair& pair, bool traced);
  void ensure_pmax(Pair& pair, bool traced);
  /// Grows the pool to >= l samples in the planner's 64Ki chunks.
  void grow(Pair& pair, std::uint64_t l, bool traced);
  af::SetFamily build_family(const Pair& pair, std::uint64_t l);

  const af::Graph& graph_;
  const af::SelectionSampler& sel_;
  af::PlannerOptions options_;
  af::ThreadPool pool_;
  Tracer& tracer_;
  std::unordered_map<std::uint64_t, Pair> pairs_;
};

}  // namespace perfbench
