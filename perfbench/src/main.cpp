// af_perfbench — the repository benchmark's binary.
//
//   af_perfbench gen --workload W --seed N --dir D
//       writes what D lacks of the workload's inputs: the dataset
//       container and the pair list a run with seed N reads;
//   af_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                    [--digest FILE] [--spans FILE]
//       runs the workload on them and prints its metrics, the last line
//       being one JSON object {correct, attempted, failed, metrics};
//   af_perfbench self-test
//       checks the benchmark's own helpers.
//
// perfbench/run.py builds this binary and calls gen, then run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "gen.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got " + key);
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

const std::string& require(const std::map<std::string, std::string>& flags,
                           const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string optional_flag(const std::map<std::string, std::string>& flags,
                          const std::string& key) {
  const auto it = flags.find(key);
  return it == flags.end() ? std::string() : it->second;
}

/// Every digest of a measured value, so no two runs print the same time
/// by rounding.
std::string number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int cmd_gen(const std::map<std::string, std::string>& flags) {
  const InputSpec spec = workload_inputs(require(flags, "workload"));
  generate_inputs(spec, std::stoull(require(flags, "seed")),
                  require(flags, "dir"));
  return 0;
}

int cmd_run(const std::map<std::string, std::string>& flags) {
  RunOptions o;
  o.workload = require(flags, "workload");
  o.seed = std::stoull(require(flags, "seed"));
  o.seconds = std::stod(require(flags, "seconds"));
  o.trace = require(flags, "trace") == "1";
  o.inputs = require(flags, "dir");
  o.digest_path = optional_flag(flags, "digest");
  o.spans_path = optional_flag(flags, "spans");
  if (o.digest_path.empty()) {
    o.digest_path = o.inputs + "/digest-" + std::to_string(o.seed) + ".txt";
  }
  const RunReport r = run_workload(o);

  std::printf("# workload %s seed %llu seconds %s trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              number(o.seconds).c_str(), o.trace ? 1 : 0);
  std::printf("# host %s\n", host_json(r.host).c_str());
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : r.extra) {
    std::printf("%-36s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-36s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// Self-tests of the benchmark's helpers.

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_tail_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const TailPercentile t = tail_percentile(v);
  expect(t.samples == 100 && near(t.percentile, 90.0) && near(t.value, 90.0),
         "tail of 1..100 is p90 = 90 with ten samples beyond");
  v.resize(11);
  const TailPercentile t11 = tail_percentile(v);
  expect(near(t11.value, 1.0) && near(t11.percentile, 100.0 / 11.0),
         "eleven samples: the smallest, ten beyond it");
  v.push_back(std::numeric_limits<double>::infinity());
  expect(near(tail_percentile(v).value, 2.0),
         "a failed answer (+inf) sorts last");
  v.resize(10);
  bool threw = false;
  try {
    tail_percentile(v);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "ten samples are too few for the rule");
}

void test_quantiles() {
  // Reference values from Python's statistics.quantiles(values, n).
  const auto q = quantiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
         "quartiles of 1..10");
  const auto q3 = quantiles({3.5, 1.25, 9.0});
  expect(near(q3[0], 1.25) && near(q3[1], 3.5) && near(q3[2], 9.0),
         "quartiles of three values");
  const auto q2 = quantiles({2.0, 1.0});
  expect(near(q2[0], 0.75) && near(q2[1], 1.5) && near(q2[2], 2.25),
         "quartiles of two values extrapolate");
  const auto d = quantiles({5, 1, 4, 2, 3}, 10);
  expect(d.size() == 9 && near(d[0], 0.6) && near(d[8], 5.4),
         "deciles of five values");
  expect(near(median({4, 1, 3, 2}), 2.5) && near(median({3, 1, 2}), 2.0),
         "median of even and odd counts");
}

void test_generators() {
  af::Rng a = input_rng(7, 3);
  af::Rng b = input_rng(7, 3);
  af::Rng c = input_rng(8, 3);
  af::Rng d = input_rng(7, 4);
  const std::uint64_t x = a.next_u64();
  expect(x == b.next_u64(), "input_rng repeats for one seed and stream");
  expect(x != c.next_u64() && x != d.next_u64(),
         "input_rng differs across seeds and streams");

  const Zipf zipf(256, 1.1);
  af::Rng za = input_rng(11, 4);
  af::Rng zb = input_rng(11, 4);
  af::Rng zc = input_rng(12, 4);
  const std::size_t n = 2'000;
  const auto ranks = zipf.systematic(n, za);
  expect(ranks == zipf.systematic(n, zb),
         "Zipf systematic draws repeat for one seed");
  expect(ranks != zipf.systematic(n, zc),
         "Zipf systematic draws differ across seeds");
  std::vector<std::size_t> counts(256);
  for (std::size_t r : ranks) ++counts[r];
  bool quota = ranks.size() == n;
  for (std::size_t r = 0; r < counts.size(); ++r) {
    const double want = static_cast<double>(n) * zipf.p(r);
    quota = quota && static_cast<double>(counts[r]) > want - 1.0 &&
            static_cast<double>(counts[r]) < want + 1.0;
  }
  expect(quota, "Zipf systematic count of each rank is floor or ceil of n p");
  // Rank 0 carries 1/H(256, 1.1) of the mass.
  double harmonic = 0.0;
  for (int r = 1; r <= 256; ++r) harmonic += std::pow(r, -1.1);
  expect(std::fabs(zipf.p(0) - 1.0 / harmonic) < 1e-12,
         "Zipf(1.1) head share is 1/H(256, 1.1)");

  af::Rng pa = input_rng(5, 4);
  af::Rng pb = input_rng(5, 4);
  af::Rng pc = input_rng(6, 4);
  const auto arr = poisson_arrivals(50.0, 20.0, pa);
  expect(arr == poisson_arrivals(50.0, 20.0, pb),
         "Poisson arrivals repeat for one seed");
  expect(arr != poisson_arrivals(50.0, 20.0, pc),
         "Poisson arrivals differ across seeds");
  expect(arr.size() > 900 && arr.size() < 1100,
         "Poisson count near rate x seconds");
  expect(std::is_sorted(arr.begin(), arr.end()) && arr.back() < 20.0,
         "Poisson arrivals ascend within the window");

  // The pair generator: four seeded sample_pairs streams with the
  // experiments' filter, on a small graph.
  af::Rng ga = input_rng(3, 1);
  const af::Graph g = af::barabasi_albert(2'000, 5, ga)
                          .build(af::WeightScheme::inverse_degree());
  const auto key = [](const std::vector<af::SampledPair>& pairs) {
    std::vector<std::pair<af::NodeId, af::NodeId>> out;
    for (const auto& p : pairs) out.emplace_back(p.s, p.t);
    return out;
  };
  const auto p1 = key(sample_pairs_seeded(g, 10, 3));
  const auto p2 = key(sample_pairs_seeded(g, 10, 3));
  const auto p3 = key(sample_pairs_seeded(g, 10, 4));
  auto sorted = p1;
  std::sort(sorted.begin(), sorted.end());
  expect(p1.size() == 10 &&
             std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
         "pair sampler returns the count asked for, all distinct");
  expect(p1 == p2, "pairs repeat for one seed");
  expect(p1 != p3, "pairs differ across seeds");
}

void test_self_time() {
  Tracer tracer;
  {
    Tracer::Scope outer(tracer, "outer");
    { Tracer::Scope inner(tracer, "inner"); }
    { Tracer::Scope inner(tracer, "inner"); }
  }
  const auto totals = tracer.totals(Tracer::Part::kAll);
  const SpanTotals& outer = totals.at("outer");
  const SpanTotals& inner = totals.at("inner");
  expect(tracer.spans()[1].parent == 0 && tracer.spans()[2].parent == 0,
         "nested spans point at their parent");
  expect(inner.calls == 2 && near(outer.self_s, outer.total_s - inner.total_s),
         "self time is duration minus the children's");
  expect(tracer.totals(Tracer::Part::kQueries).empty(),
         "spans outside a query are set-up spans");
}

int cmd_self_test() {
  test_tail_rule();
  test_quantiles();
  test_generators();
  test_self_time();
  std::printf("self-test: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "self-test") return cmd_self_test();
    const auto flags = parse_flags(argc, argv);
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "run") return cmd_run(flags);
    std::fprintf(stderr,
                 "usage: af_perfbench gen|run|self-test [--flag value ...]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "af_perfbench: %s\n", e.what());
    return 1;
  }
}
