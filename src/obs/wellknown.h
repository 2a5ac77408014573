// The repo's metric catalog: every instrument the instrumented layers
// (feed, stream engine, incremental index, api service, net server) update,
// interned once into Registry::global() and handed out as cached references
// so hot paths pay one indirect load, never a by-name lookup. The names,
// types, and label sets here are the documented surface — keep
// docs/OBSERVABILITY.md in sync when touching this file.
#ifndef BGPCU_OBS_WELLKNOWN_H
#define BGPCU_OBS_WELLKNOWN_H

#include "obs/metrics.h"

namespace bgpcu::obs {

/// Cached references into Registry::global(); obtain via obs::metrics().
struct Metrics {
  // --- feed (DirectoryFeed) ---
  Counter& feed_polls;
  Counter& feed_files_parsed;
  Counter& feed_bytes_read;
  Counter& feed_read_failures;
  Counter& feed_decode_errors;
  Counter& feed_tuples_extracted;
  Histogram& feed_poll_ns;

  // --- stream (TupleShard / StreamEngine) ---
  Counter& stream_ingest_accepted;
  Counter& stream_ingest_refreshed;
  Counter& stream_ingest_duplicate;
  Counter& stream_ingest_rejected;
  Counter& stream_ingest_batches;
  Counter& stream_evicted;
  Counter& stream_epoch_advances;
  Counter& stream_journal_deltas;
  Counter& stream_journal_dedups;
  Counter& stream_journal_overflows;

  // --- snapshot pipeline (StreamEngine::snapshot) ---
  Counter& snapshot_sweeps;
  Counter& snapshot_cache_hits;
  Histogram& snapshot_stage_stamp_ns;
  Histogram& snapshot_stage_drain_ns;
  Histogram& snapshot_stage_patch_ns;
  Histogram& snapshot_stage_sweep_ns;
  Histogram& snapshot_stage_install_ns;
  Histogram& snapshot_locked_ns;
  Gauge& snapshot_locked_last_ns;

  // --- incremental index maintenance ---
  Counter& index_deltas_applied;
  Counter& index_compactions;
  Counter& index_rebuilds;

  // --- api (Service) ---
  Counter& api_query_class_of;
  Counter& api_query_snapshot;
  Counter& api_query_live_counters;
  Counter& api_query_stats;
  Counter& api_query_metrics;
  Counter& api_query_history;
  Counter& api_publishes;
  Counter& api_events_dispatched;
  Counter& api_changes_published;
  Counter& api_replays;

  // --- net (Server) ---
  Counter& net_connections_accepted;
  Counter& net_connections_rejected;
  Counter& net_auth_failures;
  Counter& net_frames_received;
  Counter& net_frames_sent;
  Counter& net_bytes_in;
  Counter& net_bytes_out;
  Counter& net_protocol_errors;
  Counter& net_slow_disconnects;
  Counter& net_pings_received;
  Counter& net_keepalive_probes;
  Counter& net_keepalive_disconnects;
  Counter& net_requests_shed;
  Counter& net_busy_rejections;
  // Event-driven fan-out path: poller wakeups, serialize-once broadcast
  // effectiveness (encodes vs shared-buffer reuses — the reuse ratio is the
  // whole point of the design), and flushes that drained multiple frames.
  Counter& net_fanout_wakeups;
  Counter& net_fanout_encodes;
  Counter& net_fanout_buffer_reuses;
  Counter& net_fanout_coalesced_writes;
  Gauge& net_write_queue_hwm;
  Histogram& request_stage_decode_ns;
  Histogram& request_stage_dispatch_ns;
  Histogram& request_stage_encode_ns;
  Histogram& request_stage_enqueue_ns;

  // --- net (ResilientClient) ---
  Counter& net_client_connects;
  Counter& net_client_reconnects;
  Counter& net_client_gap_resyncs;
  Counter& net_client_busy_deferrals;
  Counter& net_client_pings;

  // --- store (WAL / checkpoints / recovery) ---
  Counter& store_wal_appends;
  Counter& store_wal_bytes;
  Counter& store_wal_syncs;
  Counter& store_segments_opened;
  Counter& store_truncated_records;
  Counter& store_checkpoints;
  Counter& store_checkpoint_bytes;
  Counter& store_gc_segments;
  Counter& store_io_errors;
  Counter& store_recoveries;
  Counter& store_replayed_records;
  Histogram& store_checkpoint_ns;
  Histogram& store_recovery_ns;
};

/// The process-wide catalog, interned on first use. Thread-safe.
[[nodiscard]] Metrics& metrics();

}  // namespace bgpcu::obs

#endif  // BGPCU_OBS_WELLKNOWN_H
