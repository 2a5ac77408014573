// The streaming inference core: a long-running service wrapper around the
// paper's column-counting algorithm. Tuples arrive in batches (from MRT
// update feeds, RIB refreshes, or simulators), land in ASN-hash shards under
// per-shard mutexes (the concurrent hot path), and age out of a sliding
// epoch window when configured. `snapshot()` produces an InferenceResult
// that is bit-for-bit identical to what `core::ColumnEngine::run` would
// return on the deduplicated union of all live tuples — both call the same
// `core::sweep_columns` primitive — which is this subsystem's correctness
// contract (enforced by tests/stream/test_stream_property.cc).
//
// Incrementality model: the column algorithm transfers classification
// knowledge from lower to higher path indices, so a new tuple can in
// principle flip evidence at every column: exact per-column deltas exist,
// but their size cannot be bounded in advance, so every cold snapshot
// sweeps the whole live set. What *is* hoisted out of the sweep is
// everything per-tuple: normalization, deduplication, and the upper-field
// masks are paid once at ingest; a snapshot only gathers cached views and
// sweeps, and a snapshot of an unchanged engine returns the cached result
// without sweeping at all.
// The peer-column (index 1) evidence, where Cond1 is vacuous, is maintained
// fully incrementally and queryable in real time via `live_counters`.
//
// Snapshot-outside-lock protocol: a sweep at production scale takes orders
// of magnitude longer than collecting its input, so snapshot() holds the
// exclusive engine lock only while bringing a core::IndexedDataset up to
// date with the live tuple set (a consistent cut, stamped with the
// shard-version sum), releases the lock, and sweeps with no engine lock
// held — ingest and live queries proceed concurrently with the sweep. One
// sweep mutex, held from the collect through the install, serializes cold
// snapshots: a second caller waits for the first to install and then
// usually hits the cache. Results are handed out as
// shared_ptr<const InferenceResult>, so cache hits share one immutable
// object instead of deep-copying the counter map per call.
//
// Incremental indexing: the engine owns a core::IncrementalIndex that
// persists between snapshots; shards journal every accept/evict as an
// IndexDelta, and the exclusive section shrinks to "drain the journals,
// patch the index, stamp the cut" — proportional to the churn since the last
// snapshot, not to the live tuple set. Eviction-heavy windows tombstone rows
// that are compacted lazily. The one cold path is a bulk build from the
// shards' rows, oldest first, shard by shard: it runs after a journal
// overflow (snapshot-starved engine), after an apply failure, and at the
// first snapshot after restore_state(). The sweep mutex is also what keeps
// the shared index immutable while an unlocked sweep reads it.
//
// In the serving daemon only api::Service::publish()/rebaseline() and the
// store's checkpoint call snapshot(), all from one thread; queries read the
// published snapshot and never sweep.
#ifndef BGPCU_STREAM_ENGINE_H
#define BGPCU_STREAM_ENGINE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "stream/shard.h"

namespace bgpcu::stream {

/// Stream engine tuning knobs.
struct StreamConfig {
  core::EngineConfig engine;  ///< Thresholds + sweep limits for snapshots.
  /// Number of ASN-hash shards; ingest from distinct peers contends only
  /// within a shard. Clamped to >= 1.
  std::size_t shards = 8;
  /// Sliding window in epochs: a snapshot at epoch E covers tuples last seen
  /// at epochs (E - window_epochs, E]. 0 = unbounded (nothing ages out).
  std::uint64_t window_epochs = 0;
  /// Tombstone-compaction / full-rebuild thresholds for the incremental
  /// index; the defaults suit production scale, tests shrink them.
  core::IncrementalIndexConfig index;
  /// Per-shard delta-journal overflow threshold (see TupleShard::kJournalCap).
  std::size_t journal_cap = TupleShard::kJournalCap;
};

/// An immutable, shareable inference snapshot (see snapshot()).
using SnapshotPtr = std::shared_ptr<const core::InferenceResult>;

/// One shard's durable state (see StreamEngine::checkpoint_state).
struct ShardState {
  std::uint64_t next_key = 0;
  std::vector<StoredTuple> tuples;
};

/// The engine's complete durable state: everything a restarted process needs
/// to resume ingest at the same epoch with identical window aging and stable
/// index row keys. Produced by checkpoint_state(), consumed by
/// restore_state(); the durable store serializes it (store/format.h).
struct EngineState {
  Epoch epoch = 0;
  std::uint64_t evicted_total = 0;
  std::vector<ShardState> shards;
};

/// Incremental, sharded community-usage classification engine.
///
/// Thread model: `ingest` and `live_counters` may run concurrently from any
/// number of threads (shared engine lock + per-shard mutexes);
/// `advance_epoch` takes the exclusive engine lock; a cold `snapshot` holds
/// the sweep mutex throughout and the exclusive engine lock only briefly to
/// collect its cut, then sweeps with no engine lock held — ingest and live
/// queries are never blocked for the duration of a sweep. Lock order: the
/// sweep mutex, then the engine lock.
class StreamEngine {
 public:
  explicit StreamEngine(StreamConfig config = {});

  /// Ingests one batch at the current epoch. Tuples are normalized, masked,
  /// and partitioned by peer-ASN hash outside any lock, then each affected
  /// shard is locked exactly once — the concurrent hot path.
  IngestStats ingest(core::Dataset batch);

  /// Advances to the next epoch and evicts tuples that fell out of the
  /// window (no-op eviction when window_epochs == 0). Each shard pops its
  /// expired tuples off its recency list, so the cost is proportional to the
  /// tuples that expire; the eviction is timed into
  /// bgpcu_stream_evict_duration_ns. Returns the new epoch.
  Epoch advance_epoch();

  [[nodiscard]] Epoch epoch() const;

  /// Exact inference over the live tuple set as of this call's consistent
  /// cut. Returns the cached result (same shared object, no copy) when
  /// nothing changed since the previous snapshot; otherwise collects the cut
  /// under the lock and sweeps outside it (see header note). Sweeps, cache
  /// hits, index maintenance and locked-phase time are counted only in the
  /// obs registry (the bgpcu_snapshot_* and bgpcu_index_* families).
  [[nodiscard]] SnapshotPtr snapshot() const;

  /// Real-time peer-column evidence for `asn` (no sweep; see header note).
  [[nodiscard]] core::UsageCounters live_counters(bgp::Asn asn) const;

  /// Number of live unique tuples across all shards.
  [[nodiscard]] std::size_t live_tuples() const;

  /// Tuples evicted by window aging over the engine's lifetime.
  [[nodiscard]] std::uint64_t evicted_total() const;

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }

  /// Exports the engine's durable state at a consistent cut: copies every
  /// shard's tuples, oldest first, under the exclusive lock. Touches neither
  /// the index nor the journals, so an in-flight sweep runs on undisturbed.
  /// The engine remains fully usable afterwards.
  [[nodiscard]] EngineState checkpoint_state() const;

  /// Replaces the engine's state with a checkpoint. When the shard count
  /// matches the exporting engine's, tuples keep their keys; otherwise they
  /// are redistributed under the current shard count with fresh keys. The
  /// index is reset either way, and the next snapshot bulk-builds it from
  /// the restored shards. Any cached snapshot is dropped.
  void restore_state(EngineState state);

  /// Test instrumentation: invoked by snapshot() after the collection lock
  /// is released and before the sweep starts. Lets concurrency tests prove
  /// deterministically that ingest/live queries run while a sweep is in
  /// flight. Set before going concurrent; not synchronized itself.
  void set_after_collect_hook(std::function<void()> hook) {
    after_collect_hook_ = std::move(hook);
  }

 private:
  [[nodiscard]] std::size_t shard_of(bgp::Asn peer) const noexcept;

  /// Brings index_ up to date with the shards: drains every journal and
  /// patches the index, or bulk-builds it from the shards' rows after an
  /// overflow, a prior apply failure or a restore. `live` is the shard-size
  /// sum at the cut; a mismatch against the patched index throws
  /// std::logic_error (a journal and its shard disagreeing is a bug, never
  /// a recoverable state). Caller holds engine_mutex_ exclusively.
  void apply_pending_deltas_locked(std::size_t live) const;

  StreamConfig config_;
  std::vector<std::unique_ptr<TupleShard>> shards_;
  /// Held by a cold snapshot from its collect through its install, and by
  /// restore_state: one sweep at a time. Ingest, live_counters and
  /// checkpoint_state never take it. Taken before engine_mutex_.
  mutable std::mutex sweep_mutex_;
  /// Shared: ingest/live queries. Exclusive: epoch advance + snapshot's
  /// collection and install (the sweep itself runs with no engine lock held).
  mutable std::shared_mutex engine_mutex_;
  std::atomic<Epoch> epoch_{0};
  std::atomic<std::uint64_t> evicted_total_{0};
  /// Snapshot cache, stamped with the shard-version sum at its collection
  /// cut. Written under engine_mutex_ (exclusive).
  mutable SnapshotPtr cached_;
  mutable std::uint64_t cached_version_ = 0;
  /// The persistent sweep index. Mutated only inside the exclusive collect
  /// phase while sweep_mutex_ is held, which is what makes the unlocked
  /// sweep's read of it race-free.
  mutable core::IncrementalIndex index_;
  /// Cleared when an apply failed mid-flight (index state unknown) or a
  /// restore replaced the shards; the next snapshot bulk-builds the index
  /// from the shards' authoritative state.
  mutable bool index_valid_ = true;
  std::function<void()> after_collect_hook_;
  /// Scrape-time gauges (live tuples, epoch, index occupancy); registered in
  /// the constructor, summed across engines at scrape. Declared last so they
  /// unregister before the state their callbacks read is torn down.
  obs::ScopedCollector live_tuples_collector_;
  obs::ScopedCollector epoch_collector_;
  obs::ScopedCollector index_live_collector_;
  obs::ScopedCollector index_dead_collector_;
};

}  // namespace bgpcu::stream

#endif  // BGPCU_STREAM_ENGINE_H
