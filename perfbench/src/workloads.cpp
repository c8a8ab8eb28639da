#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <variant>

#include "checks.hpp"
#include "core/planner.hpp"
#include "diffusion/sampling_index.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "storage/mapped_dataset.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Workload definitions. Every number here is fixed: nothing is
// calibrated at run time, so two commits run identical workloads.

/// Set-ups per untraced closed-loop run, spread over the loop;
/// setup_s and first_answer_s are medians. warm_sweep's set-up warms
/// eight pairs to 200k realizations, so it sets up fewer times than the
/// others. serving_zipf sets up once per segment of its schedule
/// (serving_schedule()).
constexpr int kSetUpReps = 5;
constexpr int kWarmSetUpReps = 3;

/// The host shares its CPUs: stolen time comes in episodes of seconds.
/// So warm_sweep's latency_p50_ms and throughput_qps are medians over its
/// rounds: an episode that hits fewer than half the rounds does not move
/// them.

/// cold_pairs: minimize at α = 0.3 on pairs the planner has never seen.
constexpr double kColdAlpha = 0.3;
constexpr std::size_t kColdPairs = 32;

/// warm_sweep: rounds over a fixed set of hot pairs whose caches are
/// warmed in set-up; each round sends every (pair, mode) once in a seeded
/// order, so every run sees the same mix. Minimize caps l at 50k so that
/// one query stays well under a second and a run holds hundreds of them.
constexpr std::size_t kWarmHotPairs = 8;
constexpr double kWarmAlphas[] = {0.1, 0.2, 0.3, 0.4, 0.5};
constexpr std::uint64_t kWarmMinimizeL = 50'000;
constexpr std::size_t kWarmBudgets[] = {5, 10, 20};
constexpr std::uint64_t kWarmMaximizeL[] = {50'000, 200'000};
constexpr std::size_t kWarmRounds = 64;

/// serving_zipf: open-loop Poisson arrivals through plan_async at fixed
/// absolute rates (below, near and above the capacity measured on a
/// 4-CPU host), maximize queries over a Zipf(1.1) pair table, with a
/// cache budget that holds only the head pairs.
constexpr std::size_t kServingPairs = 256;
constexpr double kServingZipfS = 1.1;
constexpr std::size_t kServingBudget = 10;
constexpr std::uint64_t kServingL = 20'000;
/// The lowest rate keeps the workers mostly idle, so its latencies are
/// service times rather than queueing behind misses, which the host's
/// stolen-time episodes would amplify.
constexpr double kServingRates[] = {12.0, 60.0, 150.0};
/// The order the rates run in, as segments of the run: the top rate
/// first, so it overloads the planner while the cache fills (cache writes
/// beside reads), then the near and lowest rates, which meet a cache the
/// LRU governor has brought to its steady state (only tail pairs miss).
/// The lowest rate's latencies are the result's; started first, its
/// median sat on the knee between hits and first-touch misses and moved
/// with every seed's draws. The lowest rate gets 70% of the run and is
/// cut into kServingLowSegments segments, so the set-up reps run spread
/// over the whole run (one in each gap) rather than in one stretch a
/// stolen-time episode can cover.
struct Segment {
  std::size_t rate;
  double share;
};
constexpr std::size_t kServingLowSegments = 9;
std::vector<Segment> serving_schedule() {
  std::vector<Segment> out = {{2, 0.2}, {1, 0.1}};
  for (std::size_t i = 0; i < kServingLowSegments; ++i) {
    out.push_back({0, 0.7 / static_cast<double>(kServingLowSegments)});
  }
  return out;
}
constexpr std::size_t kServingQueueDepth = 4096;
constexpr std::uint64_t kServingCacheBytes = 20ULL << 20;
constexpr std::size_t kServingWarmPairs = 4;
constexpr std::size_t kServingSyncChecks = 16;

/// Closed loops answer at least this many queries: the tail rule needs
/// eleven samples, and the digest covers a fixed prefix.
constexpr std::size_t kColdMinAnswers = 11;
constexpr std::size_t kWarmMinAnswers = 64;

/// Latency limits behind goodput_qps and max_rate_qps.
constexpr double kColdLimitS = 5.0;
constexpr double kWarmLimitS = 2.0;
constexpr double kServingLimitS = 0.25;

/// Traced runs replay a fixed number of answers, so per-layer totals
/// cover the same queries on every commit.
constexpr std::size_t kColdReplay = 4;
constexpr std::size_t kWarmReplay = 48;
constexpr std::size_t kServingReplayPerRate = 24;

/// Minimize answers whose out-of-sample f(I) a run estimates, and the
/// Monte-Carlo trials per estimate.
constexpr std::size_t kQualityChecks = 3;
constexpr std::uint64_t kQualitySamples = 40'000;

// ---------------------------------------------------------------------
// Set-up: open the container, make the graph, construct the planner.

struct Served {
  std::unique_ptr<af::storage::MappedDataset> mapped;
  /// The in-RAM copy, or (traced mapped runs) the replay's view graph.
  af::Graph graph;
  bool in_ram = false;
  bool hugepage_advised = false;
  std::unique_ptr<af::Planner> planner;

  const af::Graph& served_graph() const {
    return in_ram ? graph : mapped->graph();
  }
};

/// Materializes a graph into owned memory with its exact weights.
af::Graph copy_to_ram(const af::Graph& g) {
  af::Graph::Builder builder(g.num_nodes());
  for (af::NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto in = g.in_weights(u);
    const auto out = g.out_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > u) builder.add_edge(u, nbrs[i], out[i], in[i]);
    }
  }
  return builder.build_with_explicit_weights();
}

template <typename F>
void step(Tracer* tracer, const char* name, F&& f) {
  if (tracer == nullptr) {
    f();
    return;
  }
  Tracer::Scope span(*tracer, name);
  f();
}

std::unique_ptr<Served> set_up(const std::string& inputs, bool in_ram,
                               const af::PlannerOptions& options,
                               Tracer* tracer) {
  auto served = std::make_unique<Served>();
  served->in_ram = in_ram;
  step(tracer, "storage.open", [&] {
    served->mapped =
        std::make_unique<af::storage::MappedDataset>(dataset_path(inputs));
  });
  served->hugepage_advised = served->mapped->hugepage_advised();
  if (in_ram) {
    step(tracer, "graph.build",
         [&] { served->graph = copy_to_ram(served->mapped->graph()); });
    served->mapped.reset();
    step(tracer, "diffusion.index_build", [&] {
      served->planner = std::make_unique<af::Planner>(served->graph, options);
    });
    return served;
  }
  if (tracer != nullptr) {
    // The mapped path's graph build: zero-copy CSR views over the
    // container's sections (what MappedDataset does at open). The replay
    // serves from this graph.
    step(tracer, "graph.build", [&] {
      const af::Graph& g = served->mapped->graph();
      served->graph = af::Graph::from_external(
          g.raw_offsets(), g.raw_adjacency(), g.raw_in_weights(),
          g.raw_out_weights(), g.raw_total_in_weight());
    });
  }
  step(tracer, "diffusion.index_build", [&] {
    served->planner = af::Planner::from_mapped(*served->mapped, options);
  });
  return served;
}

/// The graph the replay and the checks read: the served one, except on
/// traced mapped runs, where it is the replay's view over the same map.
const af::Graph& replay_graph(const Served& served) {
  return served.in_ram || served.graph.num_nodes() == 0
             ? served.served_graph()
             : served.graph;
}

/// A sampler drawing exactly like the planner's index, for the replay and
/// the Theorem 1 check.
std::unique_ptr<const af::SelectionSampler> make_sampler(
    const Served& served) {
  if (served.in_ram) {
    return std::make_unique<const af::SamplingIndex>(served.graph);
  }
  return served.mapped->make_index(/*compact=*/false);
}

void fill_host(HostInfo& host, const Served& served) {
  const af::PlannerCacheStats stats = served.planner->cache_stats();
  host.index_simd = af::to_string(stats.index_simd);
  host.index_replicas = stats.index_replicas;
  host.hugepage_advised = served.hugepage_advised;
}

// ---------------------------------------------------------------------
// Answers and their accounting.

struct Answer {
  /// Position in the workload's query sequence; -1 for warm-up.
  std::int64_t query = 0;
  af::QuerySpec spec;
  af::PlanResult result;
  /// Closed loop: call to return. Open loop: scheduled send to
  /// fulfilment. +inf when the answer is not kOk.
  double latency_s = 0.0;
  /// Service time the planner spent on it (latency minus queue wait).
  double service_s = 0.0;
  /// When the answer arrived, in seconds from the start of its window.
  double end_s = 0.0;
  /// The invitation set. settle() moves it out of `result`, whose
  /// n-byte membership mask would otherwise make the benchmark's own
  /// bookkeeping show up in peak_rss_mb.
  std::vector<af::NodeId> members;
  /// What check_answer() found wrong; empty when the answer passed.
  std::string problem;
};

void settle(Answer& a) {
  a.problem = check_answer(a.spec, a.result);
  a.members = a.result.invitation.members();
  a.result.invitation = af::InvitationSet(0);
  if (!a.result.ok()) a.latency_s = kInf;
}

Answer timed_plan(af::Planner& planner, std::int64_t query,
                  const af::QuerySpec& spec) {
  Answer a;
  a.query = query;
  a.spec = spec;
  const auto t0 = Clock::now();
  a.result = planner.plan(spec);
  a.latency_s = since(t0);
  a.service_s = a.latency_s;
  settle(a);
  return a;
}

/// Counts every answer and check into attempted/failed.
class Tally {
 public:
  explicit Tally(RunReport& report) : report_(report) {}

  void answer(const Answer& a) {
    ++report_.attempted;
    if (a.problem.empty()) return;
    ++report_.failed;
    // Refused or expired queries are failed answers, not wrong ones.
    const bool shed = a.result.status == af::PlanStatus::kOverloaded ||
                      a.result.status == af::PlanStatus::kDeadlineExceeded;
    if (!shed) {
      fail("answer (" + std::to_string(a.spec.s) + "," +
           std::to_string(a.spec.t) + "): " + a.problem);
    }
  }

  void check(bool ok, const std::string& what) {
    ++report_.attempted;
    if (ok) return;
    ++report_.failed;
    fail(what);
  }

 private:
  void fail(const std::string& what) {
    report_.correct = false;
    if (++failures_ <= 8) report_.notes.push_back("FAILED " + what);
  }

  RunReport& report_;
  std::size_t failures_ = 0;
};

std::vector<double> latencies(const std::vector<Answer>& answers) {
  std::vector<double> out;
  for (const Answer& a : answers) out.push_back(a.latency_s);
  return out;
}

/// A run cut into blocks: each block's median latency and kOk answers
/// per second.
struct Blocks {
  std::vector<double> p50_s;
  std::vector<double> rate;

  void add(const std::vector<double>& latencies, double seconds) {
    if (!latencies.empty()) p50_s.push_back(median(latencies));
    const auto ok = std::count_if(latencies.begin(), latencies.end(),
                                  [](double l) { return l < kInf; });
    rate.push_back(static_cast<double>(ok) / seconds);
  }
};

/// The gated end-to-end metrics, in BENCHMARK.json order.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> first_answer_s;
  /// Every latency of the run: the tail's population, and the median's
  /// when the run has no blocks.
  std::vector<double> latencies_s;
  /// Per-block figures; an empty list means the pooled figure is used.
  Blocks blocks;
  /// The pooled throughput.
  double throughput_qps = 0.0;
};

void report_end_to_end(RunReport& report, const EndToEnd& e) {
  const TailPercentile tail = tail_percentile(e.latencies_s);
  const std::vector<double>& p50s = e.blocks.p50_s;
  const std::vector<double>& rates = e.blocks.rate;
  report.metrics.push_back({"setup_s", median(e.setup_s), "s"});
  report.metrics.push_back(
      {"first_answer_s", median(e.first_answer_s), "s"});
  report.metrics.push_back(
      {"latency_p50_ms",
       (p50s.empty() ? median(e.latencies_s) : median(p50s)) * 1e3, "ms"});
  report.metrics.push_back({"latency_tail_ms", tail.value * 1e3, "ms"});
  report.metrics.push_back(
      {"throughput_qps", rates.empty() ? e.throughput_qps : median(rates),
       "1/s"});
  report.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  char line[200];
  std::snprintf(line, sizeof line,
                "latency_tail_ms is p%.2f of %zu samples; setup_s is the "
                "median of %zu set-ups; p50 over %zu and throughput over %zu "
                "blocks (0: pooled)",
                tail.percentile, tail.samples, e.setup_s.size(), p50s.size(),
                rates.size());
  report.notes.push_back(line);
  const std::vector<double> q = quantiles(e.setup_s);
  std::snprintf(line, sizeof line, "setup_s quartiles %.6f %.6f %.6f s",
                q[0], q[1], q[2]);
  report.notes.push_back(line);
}

void report_quality(RunReport& report, const std::vector<Answer>& answers) {
  double invites = 0.0;
  double coverage = 0.0;
  std::size_t minimize = 0;
  std::size_t maximize = 0;
  std::size_t failed = 0;
  for (const Answer& a : answers) {
    if (!a.result.ok()) {
      ++failed;
      continue;
    }
    if (std::holds_alternative<af::MinimizeSpec>(a.spec.mode)) {
      invites += static_cast<double>(a.members.size());
      ++minimize;
    } else {
      coverage += a.result.sample_coverage;
      ++maximize;
    }
  }
  if (minimize > 0) {
    report.extra.push_back(
        {"invites_mean", invites / static_cast<double>(minimize), "count"});
  }
  if (maximize > 0) {
    report.extra.push_back(
        {"coverage_mean", coverage / static_cast<double>(maximize), "ratio"});
  }
  report.extra.push_back(
      {"failed_ratio",
       static_cast<double>(failed) / static_cast<double>(answers.size()),
       "ratio"});
}

/// Hashes the answers to queries [0, prefix) and compares the digest with
/// the one an earlier run of this seed stored.
void check_digest(Tally& tally, RunReport& report, const RunOptions& o,
                  std::vector<const Answer*> prefix) {
  std::sort(prefix.begin(), prefix.end(),
            [](const Answer* a, const Answer* b) { return a->query < b->query; });
  Digest digest;
  for (const Answer* a : prefix) digest.add(a->spec, a->result, a->members);
  char line[96];
  std::snprintf(line, sizeof line, "answer digest %016llx over %zu answers",
                static_cast<unsigned long long>(digest.value()),
                prefix.size());
  report.notes.push_back(line);
  tally.check(check_digest_file(o.digest_path, digest.value()),
              "answer digest differs from an earlier run of this seed");
}

/// Theorem 1 itself (uncapped, on a small instance), plus the
/// out-of-sample quality of the run's first minimize answers, which are
/// capped far below l* and so outside the theorem: reported, not gated.
void check_theorem(Tally& tally, RunReport& report, const Served& served,
                   const af::PlannerOptions& options,
                   const std::vector<Answer>& answers, std::uint64_t seed) {
  std::string note;
  tally.check(theorem1_spot_check(seed, note), note);
  report.notes.push_back(note);

  const auto sel = make_sampler(served);
  double worst = kInf;
  std::size_t done = 0;
  for (const Answer& a : answers) {
    const auto* min = std::get_if<af::MinimizeSpec>(&a.spec.mode);
    if (min == nullptr || !a.result.ok()) continue;
    const af::FriendingInstance inst(served.served_graph(), a.spec.s,
                                     a.spec.t);
    const af::InvitationSet invited(inst.graph().num_nodes(), a.members);
    const TheoremCheck c = estimate_quality(
        inst, *sel, *min, invited, a.result.diag.pmax.estimate,
        options.pmax_epsilon, kQualitySamples, seed + done);
    worst = std::min(worst, c.f_hat / c.target);
    char line[200];
    std::snprintf(line, sizeof line,
                  "capped answer (%u,%u) a=%.1f l=%llu l*=%.3g |I|=%zu: "
                  "f(I)=%.5f +- %.5f vs (a-e)p/(1+e0)=%.5f%s",
                  a.spec.s, a.spec.t, min->alpha,
                  static_cast<unsigned long long>(a.result.diag.l_used),
                  a.result.diag.l_star, a.members.size(), c.f_hat,
                  c.sigma, c.target, c.ok ? "" : " (below)");
    report.notes.push_back(line);
    if (++done == kQualityChecks) break;
  }
  if (done > 0) {
    report.extra.push_back({"oos_target_ratio_min", worst, "ratio"});
  }
}

// ---------------------------------------------------------------------
// Per-layer metrics from the traced run.

struct PlannerSide {
  std::vector<const Answer*> answers;
  /// Queue wait at the lowest and highest rate (open loop only).
  double queue_wait_low_ms = 0.0;
  double queue_wait_top_ms = 0.0;
  af::ServingStats serving;
  af::PlannerCacheStats cache;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void report_layers(RunReport& report, const Tracer& tracer,
                   const PlannerSide& planner,
                   const std::vector<const Answer*>& replayed) {
  const auto all = tracer.totals(Tracer::Part::kAll);
  const auto get = [&](const char* name) {
    const auto it = all.find(name);
    return it == all.end() ? SpanTotals{} : it->second;
  };
  auto& m = report.metrics;
  m.push_back({"storage.open_s", get("storage.open").self_s, "s"});
  m.push_back({"graph.build_s", get("graph.build").self_s, "s"});
  m.push_back(
      {"diffusion.index_build_s", get("diffusion.index_build").self_s, "s"});

  const SpanTotals dklr = get("diffusion.dklr");
  m.push_back({"diffusion.dklr_s", dklr.self_s, "s"});
  m.push_back({"diffusion.dklr_walks_drawn", static_cast<double>(dklr.work),
               "count"});
  m.push_back({"diffusion.dklr_used_ratio",
               ratio(static_cast<double>(dklr.useful),
                     static_cast<double>(dklr.work)),
               "ratio"});

  const SpanTotals grow = get("diffusion.pool_grow");
  m.push_back({"diffusion.pool_grow_s", grow.self_s, "s"});
  m.push_back({"diffusion.walks", static_cast<double>(grow.work), "count"});
  m.push_back({"diffusion.ns_per_walk",
               ratio(grow.self_s * 1e9, static_cast<double>(grow.work)),
               "ns"});
  m.push_back({"diffusion.type1_ratio",
               ratio(static_cast<double>(grow.useful),
                     static_cast<double>(grow.work)),
               "ratio"});

  const SpanTotals vmax = get("core.vmax");
  m.push_back({"core.vmax_s", vmax.self_s, "s"});
  m.push_back({"core.vmax_size",
               ratio(static_cast<double>(vmax.useful),
                     static_cast<double>(vmax.calls)),
               "count"});
  m.push_back({"core.maximize_s", get("core.maximize").self_s, "s"});

  const SpanTotals family = get("cover.family_build");
  m.push_back({"cover.family_build_s", family.self_s, "s"});
  m.push_back({"cover.family_sets",
               ratio(static_cast<double>(family.useful),
                     static_cast<double>(family.calls)),
               "count"});
  m.push_back({"cover.family_dedup_ratio",
               ratio(static_cast<double>(family.useful),
                     static_cast<double>(family.work)),
               "ratio"});
  const SpanTotals ls = get("cover.local_search");
  m.push_back({"cover.greedy_s", get("cover.greedy").self_s, "s"});
  m.push_back({"cover.local_search_s", ls.self_s, "s"});
  m.push_back({"cover.local_search_shrink_ratio",
               ratio(static_cast<double>(ls.useful),
                     static_cast<double>(ls.work)),
               "ratio"});

  // The planner's own view of the same run (untraced).
  double residual = 0.0;
  double hits = 0.0;
  double reused = 0.0;
  double drawn = 0.0;
  for (const Answer* a : planner.answers) {
    const af::StageTimings& t = a->result.timings;
    residual += a->service_s - (t.vmax_seconds + t.pmax_seconds +
                                t.sample_seconds + t.solve_seconds);
    hits += t.vmax_cache_hit ? 1.0 : 0.0;
    reused += static_cast<double>(t.pool_reused);
    drawn += static_cast<double>(t.pool_reused + t.pool_sampled);
  }
  const auto n = static_cast<double>(planner.answers.size());
  m.push_back({"core.planner.queue_wait_ms", planner.queue_wait_low_ms, "ms"});
  m.push_back(
      {"core.planner.queue_wait_top_ms", planner.queue_wait_top_ms, "ms"});
  m.push_back({"core.planner.residual_s", ratio(residual, n), "s"});
  m.push_back({"core.planner.pair_hit_ratio", ratio(hits, n), "ratio"});
  m.push_back({"core.planner.pool_reuse_ratio", ratio(reused, drawn),
               "ratio"});
  m.push_back({"core.planner.evictions",
               static_cast<double>(planner.cache.evictions), "count"});
  m.push_back({"core.planner.charged_bytes",
               static_cast<double>(planner.cache.charged_bytes), "bytes"});
  m.push_back({"core.planner.cache_entries",
               static_cast<double>(planner.cache.entries), "count"});
  const double offered = static_cast<double>(
      planner.serving.submitted + planner.serving.rejected_overloaded);
  m.push_back({"core.planner.coalesced_ratio",
               ratio(static_cast<double>(planner.serving.coalesced), offered),
               "ratio"});
  m.push_back({"core.planner.rejected_ratio",
               ratio(static_cast<double>(planner.serving.rejected_overloaded),
                     offered),
               "ratio"});

  // Query-time split and tracing overhead over the replayed answers.
  const auto queries = tracer.totals(Tracer::Part::kQueries);
  const auto self = [&](const char* name) {
    const auto it = queries.find(name);
    return it == queries.end() ? 0.0 : it->second.self_s;
  };
  const auto total = [&](const char* name) {
    const auto it = queries.find(name);
    return it == queries.end() ? 0.0 : it->second.total_s;
  };
  const double replay_only = total("replay.catchup") +
                             total("replay.family_copy") +
                             total("replay.split");
  const double query_s = total("core.plan") - replay_only;
  const double vmax_diffusion = self("core.vmax") + self("diffusion.dklr") +
                                self("diffusion.pool_grow") +
                                self("diffusion.instance");
  const double cover = self("cover.family_build") + self("core.raf");
  double planner_s = 0.0;
  for (const Answer* a : replayed) planner_s += a->service_s;
  m.push_back({"trace.replayed_queries", static_cast<double>(replayed.size()),
               "count"});
  m.push_back({"trace.overhead_ratio", ratio(query_s - planner_s, planner_s),
               "ratio"});
  m.push_back({"trace.vmax_diffusion_share", ratio(vmax_diffusion, query_s),
               "ratio"});
  m.push_back({"trace.cover_share", ratio(cover, query_s), "ratio"});
  m.push_back({"trace.maximize_share", ratio(self("core.maximize"), query_s),
               "ratio"});

  char line[200];
  for (const auto& [name, t] : queries) {
    std::snprintf(line, sizeof line,
                  "query span %-24s calls %6zu self %10.6f s total %10.6f s",
                  name.c_str(), t.calls, t.self_s, t.total_s);
    report.notes.push_back(line);
  }
  for (const auto& [name, t] : tracer.totals(Tracer::Part::kSetUp)) {
    std::snprintf(line, sizeof line,
                  "setup span %-24s calls %6zu self %10.6f s total %10.6f s",
                  name.c_str(), t.calls, t.self_s, t.total_s);
    report.notes.push_back(line);
  }
}

void write_spans(RunReport& report, const Tracer& tracer,
                 const std::string& path) {
  if (path.empty()) return;
  if (tracer.write_jsonl(path)) {
    report.notes.push_back("spans written to " + path);
  } else {
    report.notes.push_back("could not write spans to " + path);
  }
}

// ---------------------------------------------------------------------
// Closed loops: cold_pairs and warm_sweep.

struct ClosedLoop {
  bool in_ram = false;
  /// Cache warm-up run in set-up.
  std::vector<af::QuerySpec> warmup;
  /// The client's query sequence.
  std::vector<af::QuerySpec> queries;
  /// Whether the client may cycle the sequence (false: every query must
  /// be new to the planner).
  bool wrap = false;
  /// Queries per block (0: no blocks). Blocks start at multiples of it
  /// in the sequence; a block of warm_sweep is one round, so every block
  /// does the same work.
  std::size_t block = 0;
  std::size_t min_answers = kColdMinAnswers;
  int setups = kSetUpReps;
  double limit_s = 0.0;
  std::size_t replay = 0;
  af::PlannerOptions options;
};

bool may_send(const ClosedLoop& w, std::size_t next) {
  return w.wrap || next < w.queries.size();
}

const af::QuerySpec& query_at(const ClosedLoop& w, std::size_t i) {
  return w.queries[i % w.queries.size()];
}

/// Bit-for-bit equality of two answers to one query.
bool same_answer(const Answer& a, const std::vector<af::NodeId>& members,
                 double sample_coverage) {
  return a.members == members && a.result.sample_coverage == sample_coverage;
}

/// Replays `a` and checks the replay reproduced it.
void replay_answer(Replayer& replayer, Tally& tally, std::int64_t query,
                   const Answer& a) {
  const ReplayedAnswer r = replayer.replay(query, a.spec, a.result.timings);
  tally.check(same_answer(a, r.members, r.sample_coverage) &&
                  r.covered == a.result.diag.covered && r.split_agrees,
              "replay differs from planner on (" + std::to_string(a.spec.s) +
                  "," + std::to_string(a.spec.t) + ")");
}

/// Runs the warm-up queries one after another; with a replayer, replays
/// them as set-up work.
void run_warmup(af::Planner& planner, const std::vector<af::QuerySpec>& warmup,
                Tally& tally, Replayer* replayer) {
  for (const af::QuerySpec& spec : warmup) {
    const Answer a = timed_plan(planner, -1, spec);
    tally.answer(a);
    if (replayer != nullptr && a.result.ok()) {
      replay_answer(*replayer, tally, -1, a);
    }
  }
}

RunReport run_closed(const RunOptions& o, const ClosedLoop& w,
                     HostInfo host) {
  RunReport report;
  Tally tally(report);
  std::vector<Answer> answers;

  if (o.trace) {
    Tracer tracer;
    const auto served = set_up(o.inputs, w.in_ram, w.options, &tracer);
    fill_host(host, *served);
    std::unique_ptr<const af::SelectionSampler> sel;
    step(&tracer, "replay.index", [&] { sel = make_sampler(*served); });
    Replayer replayer(replay_graph(*served), *sel, w.options,
                      w.options.threads, tracer);
    run_warmup(*served->planner, w.warmup, tally, &replayer);

    const auto t0 = Clock::now();
    for (std::size_t next = 0;
         (since(t0) < o.seconds / 2 || answers.size() < w.replay) &&
         may_send(w, next);
         ++next) {
      answers.push_back(timed_plan(*served->planner,
                                   static_cast<std::int64_t>(next),
                                   query_at(w, next)));
    }
    PlannerSide side;
    side.cache = served->planner->cache_stats();
    side.serving = served->planner->serving_stats();
    std::vector<const Answer*> replayed;
    for (const Answer& a : answers) {
      side.answers.push_back(&a);
      tally.answer(a);
      if (replayed.size() == w.replay || !a.result.ok()) continue;
      replay_answer(replayer, tally, a.query, a);
      replayed.push_back(&a);
    }
    report_layers(report, tracer, side, replayed);
    write_spans(report, tracer, o.spans_path);
    report.host = host;
    return report;
  }

  // The set-up reps run spread over the loop rather than in one stretch
  // before it: rep k replaces the planner once k/setups of the loop's
  // time has passed, and its first answer is the loop's next query. The
  // loop's clock stops while a set-up runs.
  EndToEnd e;
  std::unique_ptr<Served> served;
  const auto start = Clock::now();
  double paused_s = 0.0;
  const auto loop_clock = [&] { return since(start) - paused_s; };
  for (std::size_t next = 0;
       (loop_clock() < o.seconds || answers.size() < w.min_answers) &&
       may_send(w, next);
       ++next) {
    const auto reps = static_cast<double>(e.setup_s.size());
    const bool set_up_now =
        e.setup_s.size() < static_cast<std::size_t>(w.setups) &&
        loop_clock() >= o.seconds * reps / w.setups;
    if (set_up_now) {
      served.reset();
      const auto t0 = Clock::now();
      served = set_up(o.inputs, w.in_ram, w.options, nullptr);
      run_warmup(*served->planner, w.warmup, tally, nullptr);
      e.setup_s.push_back(since(t0));
      paused_s += since(t0);
    }
    Answer a = timed_plan(*served->planner, static_cast<std::int64_t>(next),
                          query_at(w, next));
    a.end_s = loop_clock();
    if (set_up_now) {
      e.first_answer_s.push_back(e.setup_s.back() + a.service_s);
    }
    answers.push_back(std::move(a));
  }
  fill_host(host, *served);
  const double loop_s = loop_clock();
  std::size_t good = 0;
  std::vector<double> block;
  double block_start = 0.0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    good += answers[i].latency_s <= w.limit_s;
    if (w.block == 0) continue;
    // Only whole blocks count: the one the window closed on is dropped.
    const auto q = static_cast<std::size_t>(answers[i].query);
    if (q % w.block == 0) {
      block.clear();
      block_start = i == 0 ? 0.0 : answers[i - 1].end_s;
    }
    block.push_back(answers[i].latency_s);
    if (q % w.block == w.block - 1 && block.size() == w.block) {
      e.blocks.add(block, answers[i].end_s - block_start);
    }
  }
  if (e.blocks.p50_s.size() < 3) e.blocks = {};
  e.latencies_s = latencies(answers);
  e.throughput_qps = static_cast<double>(answers.size()) / loop_s;
  report_end_to_end(report, e);
  report.extra.push_back(
      {"goodput_qps", static_cast<double>(good) / loop_s, "1/s"});
  report_quality(report, answers);

  // Checks, outside the timed region.
  std::vector<const Answer*> prefix;
  for (const Answer& a : answers) {
    tally.answer(a);
    if (a.query < static_cast<std::int64_t>(w.min_answers)) {
      prefix.push_back(&a);
    }
  }
  check_digest(tally, report, o, prefix);
  check_theorem(tally, report, *served, w.options, answers, o.seed);
  report.host = host;
  return report;
}

RunReport run_cold_pairs(const RunOptions& o, const HostInfo& host) {
  ClosedLoop w;
  w.in_ram = false;
  const auto pairs =
      read_pairs(pairs_path(workload_inputs(o.workload), o.seed, o.inputs));
  for (const auto& p : pairs) {
    w.queries.push_back({p.s, p.t, af::MinimizeSpec{.alpha = kColdAlpha}});
  }
  w.wrap = false;
  w.min_answers = kColdMinAnswers;
  w.limit_s = kColdLimitS;
  w.replay = kColdReplay;
  w.options.threads = host.nproc;
  return run_closed(o, w, host);
}

RunReport run_warm_sweep(const RunOptions& o, const HostInfo& host) {
  ClosedLoop w;
  w.in_ram = true;
  const auto pairs =
      read_pairs(pairs_path(workload_inputs(o.workload), o.seed, o.inputs));
  std::vector<std::variant<af::MinimizeSpec, af::MaximizeSpec>> modes;
  for (double alpha : kWarmAlphas) {
    modes.emplace_back(af::MinimizeSpec{
        .alpha = alpha, .max_realizations = kWarmMinimizeL});
  }
  for (std::size_t budget : kWarmBudgets) {
    for (std::uint64_t l : kWarmMaximizeL) {
      modes.emplace_back(af::MaximizeSpec{.budget = budget, .realizations = l});
    }
  }
  for (const auto& p : pairs) {
    // Warming computes V_max and p*max and grows the pool to the
    // largest l the mix reads.
    w.warmup.push_back({p.s, p.t, af::MinimizeSpec{
                                      .alpha = kWarmAlphas[0],
                                      .max_realizations = kWarmMinimizeL}});
    w.warmup.push_back(
        {p.s, p.t, af::MaximizeSpec{.budget = kWarmBudgets[0],
                                    .realizations = kWarmMaximizeL[1]}});
  }
  // Rounds: each sends every (hot pair, mode) once, in a seeded order.
  af::Rng order = input_rng(o.seed, 3);
  std::vector<std::size_t> round(pairs.size() * modes.size());
  for (std::size_t r = 0; r < kWarmRounds; ++r) {
    for (std::size_t i = 0; i < round.size(); ++i) round[i] = i;
    order.shuffle(round);
    for (std::size_t c : round) {
      const auto& p = pairs[c / modes.size()];
      w.queries.push_back({p.s, p.t, modes[c % modes.size()]});
    }
  }
  w.wrap = true;
  w.block = round.size();
  w.min_answers = kWarmMinAnswers;
  w.setups = kWarmSetUpReps;
  w.limit_s = kWarmLimitS;
  w.replay = kWarmReplay;
  w.options.threads = host.nproc;
  return run_closed(o, w, host);
}

// ---------------------------------------------------------------------
// Open loop: serving_zipf.

struct RatePhase {
  double rate = 0.0;
  std::vector<Answer> answers;
  /// Generator lateness: actual send minus scheduled send.
  std::vector<double> lateness_s;
  /// Admission-queue length sampled while sending.
  std::vector<std::pair<double, std::size_t>> queued;
  double seconds = 0.0;
};

/// Sends Poisson arrivals at `rate` for `seconds` from this one thread,
/// then waits for every answer. Latency runs from the scheduled send.
RatePhase run_rate(af::Planner& planner,
                   const std::vector<af::QuerySpec>& table, const Zipf& zipf,
                   double rate, double seconds, af::Rng& rng) {
  RatePhase out;
  out.rate = rate;
  out.seconds = seconds;
  const std::vector<double> arrivals = poisson_arrivals(rate, seconds, rng);
  const std::vector<std::size_t> ranks = zipf.systematic(arrivals.size(), rng);
  struct Sent {
    af::QuerySpec spec;
    Clock::time_point scheduled;
    Clock::time_point sent;
    std::future<af::PlanResult> future;
  };
  std::vector<Sent> sent;
  sent.reserve(arrivals.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  auto next_sample = t0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto scheduled =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(arrivals[i]));
    std::this_thread::sleep_until(scheduled);
    const af::QuerySpec& spec = table[ranks[i]];
    const auto now = Clock::now();
    sent.push_back({spec, scheduled, now, planner.plan_async(spec)});
    if (now >= next_sample) {
      out.queued.emplace_back(
          std::chrono::duration<double>(now - t0).count(),
          planner.serving_stats().queued);
      next_sample = now + std::chrono::milliseconds(50);
    }
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Sent& s = sent[i];
    Answer a;
    a.query = static_cast<std::int64_t>(i);
    a.spec = s.spec;
    a.result = s.future.get();
    const double late =
        std::chrono::duration<double>(s.sent - s.scheduled).count();
    out.lateness_s.push_back(late);
    a.service_s = a.result.timings.async_seconds - a.result.timings.queue_seconds;
    a.latency_s = late + a.result.timings.async_seconds;
    a.end_s = std::chrono::duration<double>(s.sent - t0).count() +
              a.result.timings.async_seconds;
    settle(a);
    out.answers.push_back(std::move(a));
  }
  return out;
}

/// Appends a later segment of the same rate, shifting its times by the
/// seconds already sent.
void append_segment(RatePhase& into, RatePhase&& segment) {
  const double shift = into.seconds;
  const auto first = static_cast<std::int64_t>(into.answers.size());
  for (Answer& a : segment.answers) {
    a.query += first;
    a.end_s += shift;
    into.answers.push_back(std::move(a));
  }
  into.lateness_s.insert(into.lateness_s.end(), segment.lateness_s.begin(),
                         segment.lateness_s.end());
  for (const auto& [t, q] : segment.queued) {
    into.queued.emplace_back(t + shift, q);
  }
  into.seconds += segment.seconds;
}

/// "No growing backlog": the admission queue over the second half of
/// the send window is no longer, on average, than over the first half by
/// more than the worker count.
bool backlog_grows(const RatePhase& p, std::size_t workers) {
  double first = 0.0;
  double second = 0.0;
  std::size_t n1 = 0;
  std::size_t n2 = 0;
  for (const auto& [t, q] : p.queued) {
    if (t < p.seconds / 2) {
      first += static_cast<double>(q);
      ++n1;
    } else {
      second += static_cast<double>(q);
      ++n2;
    }
  }
  if (n1 == 0 || n2 == 0) return false;
  return second / static_cast<double>(n2) >
         first / static_cast<double>(n1) + static_cast<double>(workers);
}

double mean_queue_wait_ms(const RatePhase& p) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Answer& a : p.answers) {
    if (!a.result.ok()) continue;
    sum += a.result.timings.queue_seconds;
    ++n;
  }
  return n == 0 ? 0.0 : 1e3 * sum / static_cast<double>(n);
}

RunReport run_serving_zipf(const RunOptions& o, HostInfo host) {
  RunReport report;
  Tally tally(report);
  const auto pairs =
      read_pairs(pairs_path(workload_inputs(o.workload), o.seed, o.inputs));
  std::vector<af::QuerySpec> table;
  for (const auto& p : pairs) {
    table.push_back({p.s, p.t, af::MaximizeSpec{.budget = kServingBudget,
                                                .realizations = kServingL}});
  }
  const Zipf zipf(table.size(), kServingZipfS);
  // Busy threads stay within nproc: this generator thread, the serving
  // workers, and the sample pool they share.
  const std::size_t sample_threads =
      std::max<std::size_t>(1, (host.nproc - 1) / 3);
  const std::size_t workers =
      host.nproc > 1 + sample_threads ? host.nproc - 1 - sample_threads : 1;
  af::PlannerOptions options;
  options.threads = sample_threads;
  options.async_workers = workers;
  options.async_queue_depth = kServingQueueDepth;
  options.cache_budget_bytes = kServingCacheBytes;
  const std::vector<af::QuerySpec> warmup(
      table.begin(), table.begin() + static_cast<std::ptrdiff_t>(std::min(
                                         kServingWarmPairs, table.size())));
  char line[200];
  std::snprintf(line, sizeof line,
                "serving threads: 1 generator + %zu workers + %zu sampler",
                workers, sample_threads);
  report.notes.push_back(line);

  af::Rng rng = input_rng(o.seed, 4);
  // One phase per rate, lowest first; filled in serving_schedule()'s order.
  std::vector<RatePhase> phases(std::size(kServingRates));
  for (std::size_t i = 0; i < phases.size(); ++i) {
    phases[i].rate = kServingRates[i];
  }
  // Runs the schedule; `between` runs in each gap between two segments,
  // while no query is in flight.
  const auto run_phases = [&](af::Planner& planner, double seconds,
                              const auto& between) {
    bool first = true;
    for (const Segment& seg : serving_schedule()) {
      if (!first) between();
      first = false;
      append_segment(phases[seg.rate],
                     run_rate(planner, table, zipf, kServingRates[seg.rate],
                              seconds * seg.share, rng));
    }
  };

  if (o.trace) {
    Tracer tracer;
    const auto served = set_up(o.inputs, /*in_ram=*/true, options, &tracer);
    fill_host(host, *served);
    std::unique_ptr<const af::SelectionSampler> sel;
    step(&tracer, "replay.index", [&] { sel = make_sampler(*served); });
    Replayer replayer(served->graph, *sel, options, sample_threads, tracer);
    run_warmup(*served->planner, warmup, tally, &replayer);
    run_phases(*served->planner, o.seconds / 2, [] {});
    PlannerSide side;
    side.cache = served->planner->cache_stats();
    side.serving = served->planner->serving_stats();
    side.queue_wait_low_ms = mean_queue_wait_ms(phases.front());
    side.queue_wait_top_ms = mean_queue_wait_ms(phases.back());
    std::vector<const Answer*> replayed;
    std::int64_t id = 0;
    for (const RatePhase& p : phases) {
      std::snprintf(line, sizeof line,
                    "rate %.0f/s: mean queue wait %.3f ms over %zu answers",
                    p.rate, mean_queue_wait_ms(p), p.answers.size());
      report.notes.push_back(line);
      std::size_t taken = 0;
      for (const Answer& a : p.answers) {
        side.answers.push_back(&a);
        tally.answer(a);
        if (taken == kServingReplayPerRate || !a.result.ok()) continue;
        replay_answer(replayer, tally, id++, a);
        replayed.push_back(&a);
        ++taken;
      }
    }
    report_layers(report, tracer, side, replayed);
    write_spans(report, tracer, o.spans_path);
    report.host = host;
    return report;
  }

  // Set-up reps: the first makes the serving planner; one more runs in
  // each gap of the schedule and is dropped after its first answer.
  EndToEnd e;
  const auto set_up_rep = [&] {
    const auto t0 = Clock::now();
    auto s = set_up(o.inputs, /*in_ram=*/true, options, nullptr);
    run_warmup(*s->planner, warmup, tally, nullptr);
    e.setup_s.push_back(since(t0));
    const auto q0 = Clock::now();
    Answer first;
    first.spec = table[0];
    first.result = s->planner->plan_async(table[0]).get();
    e.first_answer_s.push_back(e.setup_s.back() + since(q0));
    settle(first);
    tally.answer(first);
    return s;
  };
  const auto served = set_up_rep();
  fill_host(host, *served);
  run_phases(*served->planner, o.seconds, [&] { set_up_rep(); });

  const RatePhase& low = phases.front();
  const RatePhase& top = phases.back();
  // Latencies from the lowest rate, pooled. Throughput is the rate the
  // planner sustained under the top rate's backlog: its kOk answers over
  // the span from the first send to the last fulfilment, during which the
  // workers never run dry. Every answer of the phase counts, so it is
  // steadier than a median of time slices of it.
  e.latencies_s = latencies(low.answers);
  double span_s = 0.0;
  std::size_t fulfilled = 0;
  for (const Answer& a : top.answers) {
    span_s = std::max(span_s, a.end_s);
    fulfilled += a.result.ok();
  }
  e.throughput_qps = static_cast<double>(fulfilled) / span_s;
  report_end_to_end(report, e);
  std::size_t good = 0;
  for (const Answer& a : top.answers) good += a.latency_s <= kServingLimitS;
  report.extra.push_back(
      {"goodput_qps", static_cast<double>(good) / top.seconds, "1/s"});

  double max_rate = 0.0;
  std::vector<Answer> all;
  for (const RatePhase& p : phases) {
    const TailPercentile tail = tail_percentile(latencies(p.answers));
    const bool grows = backlog_grows(p, workers);
    if (tail.value <= kServingLimitS && !grows) {
      max_rate = std::max(max_rate, p.rate);
    }
    std::snprintf(
        line, sizeof line,
        "rate %.0f/s: %zu sent, p50 %.3f ms, p%.1f %.3f ms, queue wait "
        "%.3f ms, generator late p50 %.3f ms max %.3f ms, backlog %s",
        p.rate, p.answers.size(), median(latencies(p.answers)) * 1e3,
        tail.percentile, tail.value * 1e3, mean_queue_wait_ms(p),
        median(p.lateness_s) * 1e3,
        *std::max_element(p.lateness_s.begin(), p.lateness_s.end()) * 1e3,
        grows ? "grows" : "steady");
    report.notes.push_back(line);
    all.insert(all.end(), p.answers.begin(), p.answers.end());
  }
  report.extra.push_back({"max_rate_qps", max_rate, "1/s"});
  double worst_late = 0.0;
  for (const RatePhase& p : phases) {
    for (double l : p.lateness_s) worst_late = std::max(worst_late, l);
  }
  report.extra.push_back({"generator_late_max_ms", worst_late * 1e3, "ms"});
  report_quality(report, all);

  // Checks, outside the timed region: structure, equal answers for equal
  // queries, sync == async, and the digest of the sync answers.
  std::map<std::pair<af::NodeId, af::NodeId>, const Answer*> first_seen;
  for (const Answer& a : all) {
    tally.answer(a);
    if (!a.result.ok()) continue;
    const auto [it, fresh] =
        first_seen.emplace(std::pair{a.spec.s, a.spec.t}, &a);
    if (!fresh) {
      tally.check(same_answer(*it->second, a.members, a.result.sample_coverage),
                  "two async answers to one query differ");
    }
  }
  std::vector<Answer> sync;
  for (std::size_t r = 0; r < std::min(kServingSyncChecks, table.size());
       ++r) {
    sync.push_back(timed_plan(*served->planner, static_cast<std::int64_t>(r),
                              table[r]));
    const Answer& a = sync.back();
    tally.answer(a);
    const auto it = first_seen.find({a.spec.s, a.spec.t});
    if (it == first_seen.end()) continue;
    tally.check(same_answer(*it->second, a.members, a.result.sample_coverage),
                "sync and async answers differ");
  }
  std::vector<const Answer*> prefix;
  for (const Answer& a : sync) prefix.push_back(&a);
  check_digest(tally, report, o, prefix);
  report.host = host;
  return report;
}

}  // namespace

InputSpec workload_inputs(const std::string& workload) {
  if (workload == "cold_pairs") return {"youtube", kColdPairs, true, true};
  if (workload == "warm_sweep") return {"hepph", kWarmHotPairs, false, false};
  if (workload == "serving_zipf") {
    return {"wiki", kServingPairs, false, false};
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

RunReport run_workload(const RunOptions& options) {
  const HostInfo host = probe_host();
  if (options.workload == "cold_pairs") return run_cold_pairs(options, host);
  if (options.workload == "warm_sweep") return run_warm_sweep(options, host);
  if (options.workload == "serving_zipf") {
    return run_serving_zipf(options, host);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
