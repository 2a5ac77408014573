#include "obs/wellknown.h"

namespace bgpcu::obs {

Metrics& metrics() {
  static Metrics catalog = [] {
    auto& r = Registry::global();
    const auto ingest_help = "Tuples offered to the stream engine by outcome";
    const auto query_help = "Service queries answered by kind";
    const auto snap_stage_help =
        "Snapshot pipeline stage duration in nanoseconds by stage";
    const auto req_stage_help = "Request path stage duration in nanoseconds by stage";
    return Metrics{
        // feed
        .feed_polls = r.counter("bgpcu_feed_polls_total", "Directory feed poll cycles"),
        .feed_files_parsed = r.counter("bgpcu_feed_files_parsed_total",
                                       "Files whose new bytes yielded complete records"),
        .feed_bytes_read =
            r.counter("bgpcu_feed_bytes_read_total", "MRT bytes consumed by the feed"),
        .feed_read_failures = r.counter("bgpcu_feed_read_failures_total",
                                        "Unreadable files (retried next poll)"),
        .feed_decode_errors = r.counter("bgpcu_feed_decode_errors_total",
                                        "MRT records skipped due to body corruption"),
        .feed_tuples_extracted = r.counter("bgpcu_feed_tuples_extracted_total",
                                           "Sanitized tuples produced by feed polls"),
        .feed_poll_ns = r.histogram("bgpcu_feed_poll_duration_ns",
                                    "Directory feed poll latency in nanoseconds"),
        // stream
        .stream_ingest_accepted =
            r.counter("bgpcu_stream_tuples_total", ingest_help, "outcome=\"accepted\""),
        .stream_ingest_refreshed =
            r.counter("bgpcu_stream_tuples_total", ingest_help, "outcome=\"refreshed\""),
        .stream_ingest_duplicate =
            r.counter("bgpcu_stream_tuples_total", ingest_help, "outcome=\"duplicate\""),
        .stream_ingest_rejected =
            r.counter("bgpcu_stream_tuples_total", ingest_help, "outcome=\"rejected\""),
        .stream_ingest_batches =
            r.counter("bgpcu_stream_ingest_batches_total", "Ingest batch calls"),
        .stream_evicted =
            r.counter("bgpcu_stream_evicted_total", "Tuples aged out of the window"),
        .stream_epoch_advances =
            r.counter("bgpcu_stream_epoch_advances_total", "Epoch advances"),
        .stream_journal_deltas = r.counter("bgpcu_stream_journal_deltas_total",
                                           "Index deltas journaled by shards"),
        .stream_journal_dedups =
            r.counter("bgpcu_stream_journal_dedups_total",
                      "Add+remove journal pairs cancelled before a drain"),
        .stream_journal_overflows = r.counter("bgpcu_stream_journal_overflows_total",
                                              "Shard journal overflows (forced rebuilds)"),
        .stream_evict_ns =
            r.histogram("bgpcu_stream_evict_duration_ns",
                        "Window eviction time per epoch advance (exclusive lock held), "
                        "nanoseconds"),
        // snapshot pipeline
        .snapshot_sweeps =
            r.counter("bgpcu_snapshot_sweeps_total", "Cold snapshots (collected + swept)"),
        .snapshot_cache_hits = r.counter("bgpcu_snapshot_cache_hits_total",
                                         "Snapshots served from the cached result"),
        .snapshot_stage_stamp_ns = r.histogram("bgpcu_snapshot_stage_duration_ns",
                                               snap_stage_help, "stage=\"stamp\""),
        .snapshot_stage_drain_ns = r.histogram("bgpcu_snapshot_stage_duration_ns",
                                               snap_stage_help, "stage=\"drain\""),
        .snapshot_stage_patch_ns = r.histogram("bgpcu_snapshot_stage_duration_ns",
                                               snap_stage_help, "stage=\"patch\""),
        .snapshot_stage_sweep_ns = r.histogram("bgpcu_snapshot_stage_duration_ns",
                                               snap_stage_help, "stage=\"sweep\""),
        .snapshot_stage_install_ns = r.histogram("bgpcu_snapshot_stage_duration_ns",
                                                 snap_stage_help, "stage=\"install\""),
        .snapshot_locked_ns =
            r.histogram("bgpcu_snapshot_locked_duration_ns",
                        "Exclusive-lock (collect) time per cold snapshot, nanoseconds"),
        .snapshot_locked_last_ns =
            r.gauge("bgpcu_snapshot_locked_last_ns",
                    "Exclusive-lock (collect) time of the latest cold snapshot, nanoseconds"),
        // index
        .index_deltas_applied = r.counter("bgpcu_index_deltas_applied_total",
                                          "Add/remove deltas patched into the index"),
        .index_compactions = r.counter("bgpcu_index_compactions_total",
                                       "Lazy tombstone group compactions"),
        .index_rebuilds =
            r.counter("bgpcu_index_rebuilds_total", "Full index rebuilds (all causes)"),
        // api
        .api_query_class_of =
            r.counter("bgpcu_api_queries_total", query_help, "kind=\"class_of\""),
        .api_query_snapshot =
            r.counter("bgpcu_api_queries_total", query_help, "kind=\"snapshot\""),
        .api_query_live_counters =
            r.counter("bgpcu_api_queries_total", query_help, "kind=\"live_counters\""),
        .api_query_stats = r.counter("bgpcu_api_queries_total", query_help, "kind=\"stats\""),
        .api_query_metrics =
            r.counter("bgpcu_api_queries_total", query_help, "kind=\"metrics\""),
        .api_query_history =
            r.counter("bgpcu_api_queries_total", query_help, "kind=\"history\""),
        .api_publishes = r.counter("bgpcu_api_publishes_total", "Service publish calls"),
        .api_events_dispatched = r.counter("bgpcu_api_events_dispatched_total",
                                           "Filtered epoch batches delivered to subscribers"),
        .api_changes_published = r.counter("bgpcu_api_changes_published_total",
                                           "Class changes in published epoch batches"),
        .api_replays = r.counter("bgpcu_api_replays_total", "Event-log replay requests"),
        // net
        .net_connections_accepted =
            r.counter("bgpcu_net_connections_accepted_total", "Connections accepted"),
        .net_connections_rejected = r.counter("bgpcu_net_connections_rejected_total",
                                              "Connections turned away at the limit"),
        .net_auth_failures =
            r.counter("bgpcu_net_auth_failures_total", "Hello frames with a bad token"),
        .net_frames_received =
            r.counter("bgpcu_net_frames_received_total", "Protocol frames read from clients"),
        .net_frames_sent =
            r.counter("bgpcu_net_frames_sent_total", "Protocol frames written to clients"),
        .net_bytes_in = r.counter("bgpcu_net_bytes_in_total", "Bytes read from clients"),
        .net_bytes_out = r.counter("bgpcu_net_bytes_out_total", "Bytes written to clients"),
        .net_protocol_errors = r.counter("bgpcu_net_protocol_errors_total",
                                         "kError frames sent for invalid client input"),
        .net_slow_disconnects = r.counter("bgpcu_net_slow_disconnects_total",
                                          "Connections dropped for write-queue overflow"),
        .net_pings_received = r.counter("bgpcu_net_pings_received_total",
                                        "Client keepalive probes answered with kPong"),
        .net_keepalive_probes = r.counter("bgpcu_net_keepalive_probes_total",
                                          "Server-initiated kPing probes on idle connections"),
        .net_keepalive_disconnects =
            r.counter("bgpcu_net_keepalive_disconnects_total",
                      "Connections dropped after an unanswered keepalive probe"),
        .net_requests_shed = r.counter("bgpcu_net_requests_shed_total",
                                       "Rate-limited requests answered busy before dispatch"),
        .net_busy_rejections = r.counter("bgpcu_net_busy_rejections_total",
                                         "Admission rejections sent as structured kBusy"),
        .net_fanout_wakeups = r.counter("bgpcu_net_fanout_wakeups_total",
                                        "IO event-loop poller wakeups"),
        .net_fanout_encodes = r.counter("bgpcu_net_fanout_encodes_total",
                                        "Distinct event payload serializations"),
        .net_fanout_buffer_reuses =
            r.counter("bgpcu_net_fanout_buffer_reuses_total",
                      "Events delivered from an already-encoded shared buffer"),
        .net_fanout_coalesced_writes =
            r.counter("bgpcu_net_fanout_coalesced_writes_total",
                      "Flushes that drained more than one queued frame"),
        .net_write_queue_hwm =
            r.gauge("bgpcu_net_write_queue_high_water",
                    "Largest per-connection write-queue depth seen, in frames"),
        .request_stage_decode_ns = r.histogram("bgpcu_request_stage_duration_ns",
                                               req_stage_help, "stage=\"decode\""),
        .request_stage_dispatch_ns = r.histogram("bgpcu_request_stage_duration_ns",
                                                 req_stage_help, "stage=\"dispatch\""),
        .request_stage_encode_ns = r.histogram("bgpcu_request_stage_duration_ns",
                                               req_stage_help, "stage=\"encode\""),
        .request_stage_enqueue_ns = r.histogram("bgpcu_request_stage_duration_ns",
                                                req_stage_help, "stage=\"enqueue\""),
        // net (ResilientClient)
        .net_client_connects = r.counter("bgpcu_net_client_connects_total",
                                         "Successful ResilientClient handshakes"),
        .net_client_reconnects =
            r.counter("bgpcu_net_client_reconnects_total",
                      "Connections re-established after a link failure"),
        .net_client_gap_resyncs =
            r.counter("bgpcu_net_client_gap_resyncs_total",
                      "Snapshot re-syncs after the replay horizon passed the resume epoch"),
        .net_client_busy_deferrals =
            r.counter("bgpcu_net_client_busy_deferrals_total",
                      "Busy/retry-after responses honored with a deferred retry"),
        .net_client_pings =
            r.counter("bgpcu_net_client_pings_total", "Client-initiated keepalive probes"),
        // store
        .store_wal_appends =
            r.counter("bgpcu_store_wal_appends_total", "WAL records appended"),
        .store_wal_bytes =
            r.counter("bgpcu_store_wal_bytes_total", "WAL bytes appended (framed)"),
        .store_wal_syncs = r.counter("bgpcu_store_wal_syncs_total", "WAL fsync calls"),
        .store_segments_opened =
            r.counter("bgpcu_store_segments_opened_total", "WAL segment files created"),
        .store_truncated_records =
            r.counter("bgpcu_store_truncated_records_total",
                      "Torn/corrupt WAL records dropped by the reader"),
        .store_checkpoints =
            r.counter("bgpcu_store_checkpoints_total", "Checkpoints written"),
        .store_checkpoint_bytes = r.counter("bgpcu_store_checkpoint_bytes_total",
                                            "Bytes written across checkpoint files"),
        .store_gc_segments = r.counter("bgpcu_store_gc_segments_total",
                                       "WAL segments deleted after checkpoints"),
        .store_io_errors = r.counter("bgpcu_store_io_errors_total",
                                     "Store IO failures (append/checkpoint degraded)"),
        .store_recoveries =
            r.counter("bgpcu_store_recoveries_total", "Startup recoveries performed"),
        .store_replayed_records = r.counter("bgpcu_store_replayed_records_total",
                                            "WAL records replayed during recovery"),
        .store_checkpoint_ns = r.histogram("bgpcu_store_checkpoint_duration_ns",
                                           "Checkpoint write latency in nanoseconds"),
        .store_recovery_ns = r.histogram("bgpcu_store_recovery_duration_ns",
                                         "Startup recovery latency in nanoseconds"),
    };
  }();
  return catalog;
}

}  // namespace bgpcu::obs
