#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 14); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(static_cast<std::int32_t>(tracer.spans_.size())) {
  Span span;
  span.name = name;
  span.parent = tracer_.open_;
  span.query = tracer_.query_;
  tracer_.spans_.push_back(span);
  tracer_.open_ = index_;
  // Stamped last, so the bookkeeping above is charged to the parent.
  tracer_.spans_[static_cast<std::size_t>(index_)].start_ns = tracer_.now_ns();
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_.now_ns();
  tracer_.open_ = span.parent;
}

void Tracer::Scope::set_counts(std::uint64_t work, std::uint64_t useful) {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.work = work;
  span.useful = useful;
}

std::map<std::string, SpanTotals> Tracer::totals(Part part) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (part != Part::kAll && (s.query >= 0) != (part == Part::kQueries)) {
      continue;
    }
    SpanTotals& t = out[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    ++t.calls;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
    t.work += s.work;
    t.useful += s.useful;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%d,\"query\":%lld,\"work\":%llu,"
                  "\"useful\":%llu}\n",
                  s.name, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent,
                  static_cast<long long>(s.query),
                  static_cast<unsigned long long>(s.work),
                  static_cast<unsigned long long>(s.useful));
    out << line;
  }
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
