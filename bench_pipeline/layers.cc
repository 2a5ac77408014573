#include "layers.h"

#include <algorithm>
#include <map>

#include "obs/wellknown.h"
#include "stats.h"

namespace bgpcu::benchpipe {

RegistryCounts RegistryCounts::read() {
  auto& m = obs::metrics();
  const auto v = [](const obs::Counter& c) { return static_cast<double>(c.value()); };
  const auto sum = [](const obs::Histogram& h) { return static_cast<double>(h.sum()); };
  RegistryCounts r;
  r.feed_bytes = v(m.feed_bytes_read);
  r.ingest_accepted = v(m.stream_ingest_accepted);
  r.ingest_offered = r.ingest_accepted + v(m.stream_ingest_refreshed) +
                     v(m.stream_ingest_duplicate) + v(m.stream_ingest_rejected);
  r.evicted = v(m.stream_evicted);
  r.index_deltas = v(m.index_deltas_applied);
  r.index_compactions = v(m.index_compactions);
  r.index_rebuilds = v(m.index_rebuilds);
  r.changes_published = v(m.api_changes_published);
  r.events_dispatched = v(m.api_events_dispatched);
  r.snapshot_stamp_ns = sum(m.snapshot_stage_stamp_ns);
  r.snapshot_drain_ns = sum(m.snapshot_stage_drain_ns);
  r.snapshot_patch_ns = sum(m.snapshot_stage_patch_ns);
  r.snapshot_sweep_ns = sum(m.snapshot_stage_sweep_ns);
  r.snapshot_install_ns = sum(m.snapshot_stage_install_ns);
  r.snapshot_locked_ns = sum(m.snapshot_locked_ns);
  r.request_decode_ns = sum(m.request_stage_decode_ns);
  r.request_dispatch_ns = sum(m.request_stage_dispatch_ns);
  r.request_encode_ns = sum(m.request_stage_encode_ns);
  r.request_enqueue_ns = sum(m.request_stage_enqueue_ns);
  r.wal_bytes = v(m.store_wal_bytes);
  r.checkpoint_bytes = v(m.store_checkpoint_bytes);
  r.net_bytes_out = v(m.net_bytes_out);
  r.fanout_encodes = v(m.net_fanout_encodes);
  r.fanout_reuses = v(m.net_fanout_buffer_reuses);
  r.slow_disconnects = v(m.net_slow_disconnects);
  r.client_reconnects = v(m.net_client_reconnects);
  return r;
}

RegistryCounts RegistryCounts::minus(const RegistryCounts& b) const {
  RegistryCounts d;
  d.feed_bytes = feed_bytes - b.feed_bytes;
  d.ingest_offered = ingest_offered - b.ingest_offered;
  d.ingest_accepted = ingest_accepted - b.ingest_accepted;
  d.evicted = evicted - b.evicted;
  d.index_deltas = index_deltas - b.index_deltas;
  d.index_compactions = index_compactions - b.index_compactions;
  d.index_rebuilds = index_rebuilds - b.index_rebuilds;
  d.changes_published = changes_published - b.changes_published;
  d.events_dispatched = events_dispatched - b.events_dispatched;
  d.snapshot_stamp_ns = snapshot_stamp_ns - b.snapshot_stamp_ns;
  d.snapshot_drain_ns = snapshot_drain_ns - b.snapshot_drain_ns;
  d.snapshot_patch_ns = snapshot_patch_ns - b.snapshot_patch_ns;
  d.snapshot_sweep_ns = snapshot_sweep_ns - b.snapshot_sweep_ns;
  d.snapshot_install_ns = snapshot_install_ns - b.snapshot_install_ns;
  d.snapshot_locked_ns = snapshot_locked_ns - b.snapshot_locked_ns;
  d.request_decode_ns = request_decode_ns - b.request_decode_ns;
  d.request_dispatch_ns = request_dispatch_ns - b.request_dispatch_ns;
  d.request_encode_ns = request_encode_ns - b.request_encode_ns;
  d.request_enqueue_ns = request_enqueue_ns - b.request_enqueue_ns;
  d.wal_bytes = wal_bytes - b.wal_bytes;
  d.checkpoint_bytes = checkpoint_bytes - b.checkpoint_bytes;
  d.net_bytes_out = net_bytes_out - b.net_bytes_out;
  d.fanout_encodes = fanout_encodes - b.fanout_encodes;
  d.fanout_reuses = fanout_reuses - b.fanout_reuses;
  d.slow_disconnects = slow_disconnects - b.slow_disconnects;
  d.client_reconnects = client_reconnects - b.client_reconnects;
  return d;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Calls whose self time is reported as a share of the root spans, in the
/// order they run. Batch calls first, then the daemon's epoch loop, then the
/// cold-start and restart calls only the lifecycle makes.
constexpr const char* kShareCalls[] = {
    "mrt.load_file",         "collector.add_dump",       "collector.finish",
    "core.run",              "core.write_database",      "feed.poll",
    "store.append_epoch_batch", "api.advance_epoch",     "api.ingest",
    "api.snapshot",          "api.publish",              "store.append_epoch_delta",
    "store.maybe_checkpoint", "store.checkpoint",        "store.open",
    "store.recover",
};

}  // namespace

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const auto by_name = totals_by_name(in.spans);
  const auto p50_of = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : summarize(it->second.durations_ms).p50;
  };
  double root_ns = 0;
  for (const auto& root : in.roots) {
    if (const auto it = by_name.find(root); it != by_name.end()) {
      for (const double ms : it->second.durations_ms) root_ns += ms * 1e6;
    }
  }

  std::vector<Metric> out;
  const auto add = [&](std::string name, std::string unit, double value) {
    out.push_back({std::move(name), std::move(unit), value, {}});
  };

  add("traced.primary_p50_ms", "ms", in.traced_primary_p50_ms);
  const bool batch_parse = by_name.count("collector.parse") != 0;
  add("collector.parse.p50_ms", "ms", p50_of(batch_parse ? "collector.parse" : "feed.poll"));
  add("core.sweep.p50_ms", "ms", p50_of(batch_parse ? "core.run" : "api.snapshot"));

  // What no call covers — the root and phase spans' own self time — is the
  // remainder, so the shares of a workload that ran anything add up to 100.
  double attributed_pct = 0;
  for (const char* call : kShareCalls) {
    const auto it = by_name.find(call);
    const double pct = it == by_name.end() ? 0.0 : 100.0 * ratio(it->second.self_ns, root_ns);
    attributed_pct += pct;
    add(std::string(call) + ".share_pct", "%", pct);
  }
  add("unattributed.share_pct", "%", root_ns > 0 ? 100.0 - attributed_pct : 0.0);

  const auto& f = in.freshness;
  add("freshness.wait_pct", "%", 100.0 * ratio(f.wait_ms, f.total_ms));
  add("freshness.pipeline_pct", "%", 100.0 * ratio(f.pipeline_ms, f.total_ms));
  add("freshness.deliver_pct", "%", 100.0 * ratio(f.deliver_ms, f.total_ms));
  add("freshness.unattributed_pct", "%",
      100.0 * ratio(f.total_ms - f.wait_ms - f.pipeline_ms - f.deliver_ms, f.total_ms));

  // Every cold snapshot in the process lands in these histograms, whichever
  // thread asked (the daemon's own kSnapshot or a query that found the cache
  // stale), so they are shares of the snapshot pipeline's total time.
  const auto& r = in.registry;
  const double snapshot_ns = r.snapshot_stamp_ns + r.snapshot_drain_ns + r.snapshot_patch_ns +
                             r.snapshot_sweep_ns + r.snapshot_install_ns;
  add("snapshot.drain_pct", "%", 100.0 * ratio(r.snapshot_drain_ns, snapshot_ns));
  add("snapshot.patch_pct", "%", 100.0 * ratio(r.snapshot_patch_ns, snapshot_ns));
  add("snapshot.sweep_pct", "%", 100.0 * ratio(r.snapshot_sweep_ns, snapshot_ns));
  add("snapshot.locked_pct", "%", 100.0 * ratio(r.snapshot_locked_ns, snapshot_ns));
  add("net.request.decode_pct", "%", 100.0 * ratio(r.request_decode_ns, in.query_round_trip_ns));
  add("net.request.dispatch_pct", "%",
      100.0 * ratio(r.request_dispatch_ns, in.query_round_trip_ns));
  add("net.request.encode_pct", "%", 100.0 * ratio(r.request_encode_ns, in.query_round_trip_ns));
  add("net.request.enqueue_pct", "%",
      100.0 * ratio(r.request_enqueue_ns, in.query_round_trip_ns));

  add("collector.kept_ratio", "ratio", in.kept_ratio);
  add("collector.decode_errors", "count", in.decode_errors);
  add("feed.mb", "MB", r.feed_bytes / 1e6);
  add("stream.accept_ratio", "ratio", ratio(r.ingest_accepted, r.ingest_offered));
  add("stream.evicted", "count", r.evicted);
  add("index.deltas_applied", "count", r.index_deltas);
  add("index.compactions", "count", r.index_compactions);
  add("index.rebuilds", "count", r.index_rebuilds);
  add("api.changes_published", "count", r.changes_published);
  add("api.events_dispatched", "count", r.events_dispatched);
  add("store.wal_mb", "MB", r.wal_bytes / 1e6);
  add("store.checkpoint_mb", "MB", r.checkpoint_bytes / 1e6);
  add("store.batches_replayed", "count", in.batches_replayed);
  add("store.index_image_loaded", "count", in.index_images_loaded);
  add("net.bytes_out_mb", "MB", r.net_bytes_out / 1e6);
  add("net.fanout.reuse_ratio", "ratio",
      ratio(r.fanout_reuses, r.fanout_encodes + r.fanout_reuses));
  add("net.slow_disconnects", "count", r.slow_disconnects);
  add("net.client.reconnects", "count", r.client_reconnects);
  add("loop.busy_share", "ratio", in.loop_busy_share);
  return out;
}

}  // namespace bgpcu::benchpipe
