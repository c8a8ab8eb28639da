// The host a result was measured on, recorded in every result so numbers
// from different machines are never compared silently.
#pragma once

#include <string>

namespace perfbench {

struct HostInfo {
  /// CPUs this process may run on (the affinity mask).
  unsigned nproc = 1;
  /// CPU brand string from cpuid; "unknown" off x86.
  std::string cpu_model;
  /// NUMA nodes the library's topology discovery found.
  int numa_nodes = 1;
  /// Selection-index kernel the planner dispatched to.
  std::string index_simd;
  /// Index copies the planner holds (one per replicated NUMA node).
  std::size_t index_replicas = 1;
  /// Whether the dataset mapping was advised onto huge pages, and the
  /// AF_HUGEPAGES switch the library honours.
  bool hugepage_advised = false;
  std::string hugepage_env;
};

/// Fills the fields that depend only on the machine (nproc, CPU model,
/// NUMA nodes, AF_HUGEPAGES); the planner-dependent ones are the
/// caller's.
HostInfo probe_host();

/// The host as one JSON object.
std::string host_json(const HostInfo& host);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
