// The benchmark's workloads. Each one loads a generated dataset, sets up
// a planner, drives it through the public API, checks every answer and
// reports metrics: end-to-end ones from an untraced run, per-layer ones
// from a traced replay (replay.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen.hpp"
#include "host.hpp"

namespace perfbench {

/// One named, unit-tagged number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory generate_inputs() filled for the workload.
  std::string inputs;
  /// Where the answer digest of this (workload, seed) is kept.
  std::string digest_path;
  /// Where the traced run writes its spans (JSON lines).
  std::string spans_path;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The metrics of the result line: the end-to-end set untraced, the
  /// per-layer set traced. Every workload reports every name.
  std::vector<Metric> metrics;
  /// Workload-specific figures printed beside them (rates, quality,
  /// failure ratio, generator lateness).
  std::vector<Metric> extra;
  std::vector<std::string> notes;
  HostInfo host;
};

/// The inputs a workload needs. Throws std::invalid_argument on an
/// unknown name.
InputSpec workload_inputs(const std::string& workload);

/// Runs one workload. Throws on set-up errors (unreadable inputs);
/// answer and check failures are reported, not thrown.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
