// Process-wide metrics registry: the observability substrate every layer
// reports through. Three instrument kinds — monotonic Counters, set/add/max
// Gauges, and fixed log-bucket Histograms — all updated with relaxed atomics
// so hot paths (shard ingest, sweep kernels, per-frame network work) never
// take a lock or issue a fence to be observable. Counters additionally
// stripe their value across cache-line-padded lanes (selected per thread)
// that are only merged at scrape time, so concurrent ingest workers bumping
// the same counter do not bounce one cache line between cores.
//
// Instruments are owned by a Registry and identified by (family name, label
// set); asking for the same identity twice returns the same instrument, so
// call sites can cache references (see obs::metrics() in wellknown.h for the
// repo's instrument catalog). Point-in-time values that live inside an
// object (live tuples, open connections, queue depths) are exposed through
// callback collectors: the object registers a closure evaluated at scrape
// time and holds the returned ScopedCollector, whose destructor unregisters
// it — multiple collectors publishing the same series (several engines in
// one process) are summed at scrape.
//
// A scrape (Registry::collect) produces an immutable Snapshot — a list of
// metric families with their series — that the renderers (obs/render.h),
// the wire metrics frame (api/wire.h), and the HTTP endpoint (obs/http.h)
// all consume, so every exposure surface reports the same numbers.
#ifndef BGPCU_OBS_METRICS_H
#define BGPCU_OBS_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bgpcu::obs {

namespace detail {
/// Stable per-thread lane index in [0, lanes); cheap after first call.
[[nodiscard]] std::size_t thread_lane(std::size_t lanes) noexcept;
}  // namespace detail

/// Monotonic counter, striped across cache-line-padded lanes. add() from any
/// thread; value() merges the lanes (a snapshot, not a fence).
class Counter {
 public:
  static constexpr std::size_t kLanes = 8;

  /// Adds `n` on this thread's lane. `lane` overrides the thread-hash pick —
  /// per-shard call sites pass their shard index so a shard's updates always
  /// land on the same stripe.
  void add(std::uint64_t n = 1,
           std::size_t lane = std::numeric_limits<std::size_t>::max()) noexcept {
    if (lane == std::numeric_limits<std::size_t>::max()) {
      lane = detail::thread_lane(kLanes);
    }
    lanes_[lane % kLanes].v.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& lane : lanes_) total += lane.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Lane {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Lane, kLanes> lanes_{};
};

/// Point-in-time integer value: set/add/max_of from any thread. For values
/// computed at scrape time, prefer a callback collector instead.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }

  void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }

  /// Raises the gauge to `v` if larger (lifetime high-water mark).
  void max_of(std::int64_t v) noexcept {
    auto cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log-bucket histogram for latency/size distributions. Bucket i
/// counts observations <= 2^i (and > 2^(i-1)); the last bucket is +Inf.
/// Units are whatever the caller observes (the repo's duration histograms
/// observe nanoseconds and say so in the family name).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;  ///< le = 1, 2, 4, ... 2^38, +Inf.

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Upper bound of bucket `i` (the Prometheus `le` value); the final bucket
  /// has no finite bound.
  [[nodiscard]] static std::uint64_t bucket_bound(std::size_t i) noexcept {
    return std::uint64_t{1} << i;
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v <= 1) return 0;
    const auto width = static_cast<std::size_t>(std::bit_width(v - 1));
    return width < kBuckets - 1 ? width : kBuckets - 1;
  }

  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

// ---------------------------------------------------------------- scrape --

enum class MetricType : std::uint8_t { kCounter = 1, kGauge = 2, kHistogram = 3 };

/// Raw per-bucket counts (NOT cumulative; renderers cumulate for the
/// Prometheus `le` convention) plus the observation sum and count.
struct HistogramData {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

/// One labeled series of a family. `labels` is the pre-rendered label body
/// without braces (`stage="sweep"`, `outcome="accepted",shard="3"`), empty
/// for an unlabeled series. Exactly one of value/hist is meaningful,
/// matching the family's type.
struct Series {
  std::string labels;
  double value = 0;
  std::optional<HistogramData> hist;

  friend bool operator==(const Series&, const Series&) = default;
};

/// One metric family: every series sharing a name, type, and help string.
struct Family {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<Series> series;

  friend bool operator==(const Family&, const Family&) = default;
};

/// A consistent-enough scrape of the registry (values are relaxed reads).
/// Families sorted by name, series by label string.
using Snapshot = std::vector<Family>;

// -------------------------------------------------------------- registry --

class Registry;

/// RAII handle for a callback collector; unregisters on destruction.
/// Destruction blocks until any in-flight collect() finishes, so a callback
/// can never run after the object it reads is gone.
class ScopedCollector {
 public:
  ScopedCollector() = default;
  ScopedCollector(Registry* registry, std::uint64_t id) : registry_(registry), id_(id) {}
  ScopedCollector(ScopedCollector&& other) noexcept { *this = std::move(other); }
  ScopedCollector& operator=(ScopedCollector&& other) noexcept;
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;
  ~ScopedCollector() { reset(); }

  void reset();

 private:
  Registry* registry_ = nullptr;
  std::uint64_t id_ = 0;
};

class Registry {
 public:
  /// The process-wide registry every layer reports into.
  [[nodiscard]] static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Instrument accessors: the first call for a (name, labels) identity
  /// creates the instrument; later calls return the same object, whose
  /// address is stable for the registry's lifetime. `labels` is the rendered
  /// label body without braces, or empty. Asking for an existing identity
  /// with a different type throws std::logic_error.
  Counter& counter(std::string_view name, std::string_view help,
                   std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view help, std::string_view labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::string_view labels = {});

  /// Registers a gauge series computed at scrape time. Collectors sharing a
  /// (name, labels) identity are summed — several engines in one process
  /// publish one combined series. The callback runs on the scraping thread
  /// and may take its owner's locks; it must not call back into this
  /// Registry. Keep the returned handle alive exactly as long as the state
  /// the callback reads.
  [[nodiscard]] ScopedCollector add_collector(std::string_view name, std::string_view help,
                                              std::string_view labels,
                                              std::function<double()> fn);

  /// Scrapes everything: instruments plus callback collectors, merged into
  /// sorted families.
  [[nodiscard]] Snapshot collect() const;

 private:
  friend class ScopedCollector;

  struct Instrument {
    std::string name;
    std::string help;
    std::string labels;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct CollectorEntry {
    std::string name;
    std::string help;
    std::string labels;
    std::function<double()> fn;
  };

  void remove_collector(std::uint64_t id);
  Instrument& intern(std::string_view name, std::string_view help, std::string_view labels,
                     MetricType type);

  /// Guards the maps; collect() holds it across callback evaluation, which
  /// is what makes ScopedCollector destruction a synchronization point.
  mutable std::mutex mutex_;
  std::map<std::string, Instrument> instruments_;  ///< Key: name + '\0' + labels.
  std::map<std::uint64_t, CollectorEntry> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

}  // namespace bgpcu::obs

#endif  // BGPCU_OBS_METRICS_H
