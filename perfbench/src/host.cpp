#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "util/numa.hpp"

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf < 0x80000004U) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string out(brand);
  const auto first = out.find_first_not_of(' ');
  const auto last = out.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : out.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

HostInfo probe_host() {
  HostInfo host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    host.nproc = static_cast<unsigned>(std::max(CPU_COUNT(&set), 1));
  } else {
    host.nproc = std::max(std::thread::hardware_concurrency(), 1U);
  }
  host.cpu_model = cpu_brand();
  host.numa_nodes = af::numa_topology().num_nodes();
  const char* env = std::getenv("AF_HUGEPAGES");
  host.hugepage_env = env == nullptr ? "unset" : env;
  return host;
}

std::string host_json(const HostInfo& host) {
  return "{\"nproc\": " + std::to_string(host.nproc) + ", \"cpu_model\": \"" +
         json_escape(host.cpu_model) +
         "\", \"numa_nodes\": " + std::to_string(host.numa_nodes) +
         ", \"index_simd\": \"" + host.index_simd +
         "\", \"index_replicas\": " + std::to_string(host.index_replicas) +
         ", \"hugepage_advised\": " +
         (host.hugepage_advised ? "true" : "false") +
         ", \"AF_HUGEPAGES\": \"" + json_escape(host.hugepage_env) + "\"}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
