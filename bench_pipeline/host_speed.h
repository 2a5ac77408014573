// Host-speed adjustment of the end-to-end times.
//
// The benchmark runs on shared VMs whose speed drifts with the neighbours'
// load. On the 4-vCPU VM it was built on, a fixed single-thread kernel took
// between 86 and 142 ms in successive 10-s windows, and the median
// batch_classify rep read between 300 and 520 ms in runs minutes apart — in
// thread CPU time as much as in wall time, so the slowdown is the host's
// (shared cores and caches), not the guest's scheduler. No statistic over one
// run removes a slowdown that lasts the whole run.
//
// So every workload runs a fixed probe kernel at points where none of its
// own load runs, and reports each time sample at the reference speed:
// value * kReferenceProbeMs / probe_ms, with probe_ms the median of the
// probes within 1 s of the sample, or of the whole run's probes when none is
// that close. The raw medians and the probe time are kept in the detail
// record.
#ifndef BGPCU_BENCH_PIPELINE_HOST_SPEED_H
#define BGPCU_BENCH_PIPELINE_HOST_SPEED_H

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace bgpcu::benchpipe {

/// The probe's median CPU time on the reference VM. It fixes only the scale
/// of the adjusted times: on a host that is uniformly faster or slower every
/// adjusted time moves by the same factor, so comparisons between commits
/// on one host are unaffected.
inline constexpr double kReferenceProbeMs = 2.3;

/// A time sample and when it was taken.
struct TimedSample {
  Clock::time_point at;
  double value = 0;
};

/// The samples' values as measured.
[[nodiscard]] inline std::vector<double> values_of(const std::vector<TimedSample>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& s : samples) values.push_back(s.value);
  return values;
}

class HostSpeed {
 public:
  /// Probes within this distance of a sample set its factor.
  static constexpr auto kWindow = std::chrono::seconds(1);

  HostSpeed() : keys_(kKeys), sorted_(kKeys), table_(2 * kKeys) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x | 1;  // 0 marks an empty table slot.
    }
  }

  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Times the probe kernel on the calling thread, in thread CPU time, and
  /// records it. The first pass loads the probe's data into the caches, so
  /// the timed second pass does not depend on what the program left there.
  /// Call from one thread at a time, and read the results only after every
  /// thread that probed was joined.
  void probe() {
    const auto at = Clock::now();
    kernel();
    const auto start = thread_cpu_ns();
    kernel();
    record(at, static_cast<double>(thread_cpu_ns() - start) / 1e6);
  }

  /// Records one probe time; probes must be recorded in time order.
  void record(Clock::time_point at, double probe_ms) { probes_.emplace_back(at, probe_ms); }

  /// `samples` at the reference speed, in the same order.
  [[nodiscard]] std::vector<double> at_reference(const std::vector<TimedSample>& samples) const {
    if (probes_.empty()) throw std::logic_error("host speed read before any probe");
    const double run_ms = median_probe_ms();
    const auto by_time = [](const auto& probe, Clock::time_point t) { return probe.first < t; };
    std::vector<double> out;
    out.reserve(samples.size());
    for (const auto& s : samples) {
      const auto lo = std::lower_bound(probes_.begin(), probes_.end(), s.at - kWindow, by_time);
      const auto hi = std::lower_bound(lo, probes_.end(), s.at + kWindow, by_time);
      std::vector<double> near;
      for (auto it = lo; it != hi; ++it) near.push_back(it->second);
      const double probe_ms = near.empty() ? run_ms : summarize(std::move(near)).p50;
      out.push_back(s.value * kReferenceProbeMs / probe_ms);
    }
    return out;
  }

  /// Median probe time of the whole run, in ms.
  [[nodiscard]] double median_probe_ms() const {
    std::vector<double> all;
    for (const auto& [at, ms] : probes_) all.push_back(ms);
    return summarize(std::move(all)).p50;
  }

 private:
  static constexpr std::size_t kKeys = 1 << 15;

  static std::int64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }

  /// Sort and hash: the instruction mix of the parse, dedup and sweep paths,
  /// on ~1.5 MB allocated up front, so the program's heap state cannot
  /// change the probe's time.
  void kernel() {
    std::copy(keys_.begin(), keys_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    std::fill(table_.begin(), table_.end(), 0);
    std::size_t distinct = 0;
    for (const auto k : sorted_) {
      auto slot = (k * 0xFF51AFD7ED558CCDull) >> 48;
      while (table_[slot % table_.size()] != 0 && table_[slot % table_.size()] != k) ++slot;
      distinct += table_[slot % table_.size()] == 0;
      table_[slot % table_.size()] = k;
    }
    if (distinct == 0) throw std::logic_error("host probe hashed nothing");
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> sorted_;
  std::vector<std::uint64_t> table_;
  std::vector<std::pair<Clock::time_point, double>> probes_;
};

}  // namespace bgpcu::benchpipe

#endif  // BGPCU_BENCH_PIPELINE_HOST_SPEED_H
