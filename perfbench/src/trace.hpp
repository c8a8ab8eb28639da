// In-memory span recorder for the traced replay. Spans are recorded from
// the benchmark's own code around each call into a library layer; they
// are kept in memory and written out once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call into a layer.
struct Span {
  /// Layer-prefixed name, e.g. "core.vmax" (a string literal).
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for a root.
  std::int32_t parent = -1;
  /// Query the span served, -1 for set-up work.
  std::int64_t query = -1;
  /// Work the call did (walks drawn, paths scanned, ...) and the part of
  /// it that was useful (walks used, distinct sets, ...); 0 when the
  /// layer has no such count.
  std::uint64_t work = 0;
  std::uint64_t useful = 0;
};

/// Per-name aggregate over a set of spans.
struct SpanTotals {
  std::size_t calls = 0;
  /// Σ duration.
  double total_s = 0.0;
  /// Σ (duration − time covered by direct children).
  double self_s = 0.0;
  std::uint64_t work = 0;
  std::uint64_t useful = 0;
};

/// Single-threaded span recorder: spans nest strictly (a scope closes
/// before its parent does).
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_counts(std::uint64_t work, std::uint64_t useful);

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  Tracer();

  /// Tags the spans opened from now on with `query` (-1 = set-up).
  void set_query(std::int64_t query) { query_ = query; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Which spans an aggregate covers.
  enum class Part { kAll, kSetUp, kQueries };

  /// Totals per span name over the spans of `part`.
  std::map<std::string, SpanTotals> totals(Part part) const;

  /// Writes one JSON object per span per line. Returns false on I/O
  /// failure.
  bool write_jsonl(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::int64_t query_ = -1;
};

}  // namespace perfbench
