// Per-layer metrics of the traced run, named <module>.<call>.<stat>. Every
// workload reports the same list; a layer a workload never calls reads 0,
// and only as a share, count or ratio, never as a time. Three sources:
//
//   - the benchmark's own spans around each library call (trace.h): p50
//     times of the parse and sweep stages every workload runs, and each
//     call's self time as a share of the workload's root spans;
//   - the production registry (obs::metrics()), read before and after the
//     timed phase: index maintenance, snapshot-stage and request-stage
//     histograms, WAL/checkpoint bytes, fan-out encode reuse;
//   - facts the workload observed itself (sanitizer ratio, recovery stats,
//     the live freshness split).
#ifndef BGPCU_BENCH_PIPELINE_LAYERS_H
#define BGPCU_BENCH_PIPELINE_LAYERS_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"

namespace bgpcu::benchpipe {

/// Registry counters and histogram sums the benchmark reads. Differences of
/// two reads give one phase's activity.
struct RegistryCounts {
  double feed_bytes = 0;
  double ingest_offered = 0;
  double ingest_accepted = 0;
  double evicted = 0;
  double index_deltas = 0;
  double index_compactions = 0;
  double index_rebuilds = 0;
  double changes_published = 0;
  double events_dispatched = 0;
  double snapshot_stamp_ns = 0;
  double snapshot_drain_ns = 0;
  double snapshot_patch_ns = 0;
  double snapshot_sweep_ns = 0;
  double snapshot_install_ns = 0;
  double snapshot_locked_ns = 0;
  double request_decode_ns = 0;
  double request_dispatch_ns = 0;
  double request_encode_ns = 0;
  double request_enqueue_ns = 0;
  double wal_bytes = 0;
  double checkpoint_bytes = 0;
  double net_bytes_out = 0;
  double fanout_encodes = 0;
  double fanout_reuses = 0;
  double slow_disconnects = 0;
  double client_reconnects = 0;

  [[nodiscard]] static RegistryCounts read();
  [[nodiscard]] RegistryCounts minus(const RegistryCounts& before) const;
};

/// Where the live workload's freshness went, summed over its samples.
struct FreshnessSplit {
  double total_ms = 0;
  double wait_ms = 0;      ///< File due -> the poll that picked it up.
  double pipeline_ms = 0;  ///< Stage spans from that poll to publish returning.
  double deliver_ms = 0;   ///< Publish returned -> match-all receipt.
};

struct LayerInputs {
  std::span<const Span> spans;
  /// Names of the spans whose total time the shares divide by.
  std::vector<std::string> roots;
  double traced_primary_p50_ms = 0;
  RegistryCounts registry;  ///< Timed-phase difference.
  double kept_ratio = 0;    ///< Sanitizer output / input.
  double decode_errors = 0;
  FreshnessSplit freshness;
  double query_round_trip_ns = 0;  ///< Sum over the query client's requests.
  double batches_replayed = 0;
  double index_images_loaded = 0;
  double loop_busy_share = 0;
};

[[nodiscard]] std::vector<Metric> layer_metrics(const LayerInputs& in);

}  // namespace bgpcu::benchpipe

#endif  // BGPCU_BENCH_PIPELINE_LAYERS_H
