// The three workloads. Each runs in its own process over an archive written
// beforehand by --gen-only, measures for a fixed number of seconds, checks
// the program's outputs, and returns every end-to-end metric (the same four
// names for every workload) and every per-layer metric.
//
// End-to-end metrics, per workload:
//                 primary_p50_ms           secondary_mean_ms    setup_s
//   batch_classify archive -> database     database -> answers  cold bgpcu_classify run
//   live_tail      file due -> subscriber  kClassOf round trip  daemon bring-up
//   lifecycle      one trickle epoch       crash recovery       cold start
// plus rss_mb, the workload process's typical resident set while timed.
// Times are reported at the reference host speed (host_speed.h).
#ifndef BGPCU_BENCH_PIPELINE_WORKLOADS_H
#define BGPCU_BENCH_PIPELINE_WORKLOADS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.h"
#include "report.h"

namespace bgpcu::benchpipe {

struct RunOptions {
  std::string archive;       ///< Written by --gen-only; read-only here.
  std::string work_dir;      ///< Scratch for watch/data dirs; emptied after.
  std::string classify_bin;  ///< The built bgpcu_classify.
  std::uint64_t seed = 1;
  double seconds = 10;       ///< Length of the timed phase.
  bool traced = false;
  std::string trace_path;    ///< Where a traced run writes its spans (JSONL).
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Reading> readings;
  std::vector<std::string> errors;  ///< Correctness-gate failures.

  void fail(std::string what) { errors.push_back(std::move(what)); }
  [[nodiscard]] bool correct() const noexcept { return errors.empty() && failed == 0; }
};

WorkloadResult run_batch_classify(const RunOptions& options);
WorkloadResult run_live_tail(const RunOptions& options);
WorkloadResult run_lifecycle(const RunOptions& options);

/// The process's resident set now, in MB; 0 when it cannot be read.
[[nodiscard]] double resident_mb();

/// Samples the process's resident set every 20 ms on a thread of its own
/// while alive. The median of the samples is the workload's memory metric:
/// the high-water mark moved by up to 20% between runs of one input with the
/// allocator's timing, the typical footprint much less.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the samples in MB.
  std::vector<double> stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> samples_mb_;
  std::thread thread_;
};

/// The four end-to-end metrics from their samples, each time at the
/// reference host speed (host_speed.h). The primary p75/p90/p99 tails, the
/// secondary percentiles, the raw (unadjusted) medians and the probe time go
/// to `readings`. The tails are not gated: on the 4-vCPU VM the benchmark
/// was built on, the host's slow spells of 5-20 s land in a quarter of a
/// run's samples often enough that even the batch p75 moved by 14-18%
/// between runs after adjustment, the median by 4-5%. The kClassOf median
/// switched between ~25 and ~70 us from run to run with where the scheduler
/// put the client and server threads, while its mean — which carries the
/// reads that waited behind an ingest — moved by 5%.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const HostSpeed& host,
                                                     const std::vector<TimedSample>& primary_ms,
                                                     const std::vector<TimedSample>& secondary_ms,
                                                     const std::vector<TimedSample>& setup_s,
                                                     const std::vector<double>& rss_mb,
                                                     std::vector<Reading>& readings);

}  // namespace bgpcu::benchpipe

#endif  // BGPCU_BENCH_PIPELINE_WORKLOADS_H
