// Spans recorded from the benchmark's side of each library call. A span holds
// a name, start, end, the span that caused it, and a trace id shared by every
// span of one unit of work (the epoch on live_tail, the rep elsewhere).
// Spans go into a vector preallocated before the timed phase: a thread claims
// a slot with one atomic increment and is the only writer of that slot, and
// the spans are read only after every recording thread has been joined.
// Disabled tracers record nothing, so the untraced run makes exactly the same
// library calls without paying for the bookkeeping.
#ifndef BGPCU_BENCH_PIPELINE_TRACE_H
#define BGPCU_BENCH_PIPELINE_TRACE_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bgpcu::benchpipe {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `a` to `b`.
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct Span {
  const char* name = "";  ///< String literal; outlives the tracer.
  std::uint64_t trace = 0;
  SpanId parent = kNoSpan;
  std::int64_t start_ns = 0;  ///< Relative to the tracer's origin.
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, std::size_t capacity)
      : enabled_(enabled), origin_(Clock::now()), spans_(enabled ? capacity : 0) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  /// Opens a span starting now. kNoSpan when disabled or full.
  SpanId begin(const char* name, std::uint64_t trace, SpanId parent = kNoSpan) {
    if (!enabled_) return kNoSpan;
    const auto now = Clock::now();
    return add(name, trace, parent, now, now);
  }

  /// Closes a span opened by begin() on this thread.
  void end(SpanId id) {
    if (id == kNoSpan) return;
    spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
  }

  /// Records a span whose endpoints were measured elsewhere.
  SpanId add(const char* name, std::uint64_t trace, SpanId parent, Clock::time_point start,
             Clock::time_point end) {
    if (!enabled_) return kNoSpan;
    const auto slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return kNoSpan;
    }
    spans_[slot] = Span{name, trace, parent, ns(start), ns(end)};
    return static_cast<SpanId>(slot);
  }

  /// The recorded spans. Call only after every recording thread was joined.
  [[nodiscard]] std::span<const Span> spans() const {
    return {spans_.data(), std::min(next_.load(), spans_.size())};
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_.load(); }

  /// Writes one JSON object per span. Throws std::runtime_error on IO failure.
  void write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write trace file " + path);
    const auto all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"trace\":%llu,\"parent\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.name, static_cast<unsigned long long>(s.trace),
                   static_cast<long long>(s.parent), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Span over one lexical scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t trace, SpanId parent = kNoSpan)
      : tracer_(tracer), id_(tracer.begin(name, trace, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanId id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  SpanId id_;
};

/// Self time of every span: its duration minus the part of it that the union
/// of its children's intervals covers. Children may overlap each other or
/// stick out of their parent; only the covered part of the parent counts.
[[nodiscard]] inline std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto lo = spans[i].start_ns;
    const auto hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // End of the covered prefix so far.
    for (const auto& [start, end] : kids) {
      const auto a = std::max(start, reach);
      const auto b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Per-name totals over a span set.
struct NameTotals {
  std::vector<double> durations_ms;
  double self_ns = 0;
};

[[nodiscard]] inline std::map<std::string, NameTotals> totals_by_name(
    std::span<const Span> spans) {
  const auto self = self_times(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& t = out[spans[i].name];
    t.durations_ms.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6);
    t.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

}  // namespace bgpcu::benchpipe

#endif  // BGPCU_BENCH_PIPELINE_TRACE_H
