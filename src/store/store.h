// The durable store orchestrator: owns a data directory holding WAL
// segments, wire-format checkpoints, and the manifest, and wires them to an
// api::Service. The Service itself stays storage-agnostic — the serving
// daemon drives the store explicitly:
//
//   store::Store store({.dir = data_dir});
//   auto recovery = store.recover(service);      // before serving traffic
//   feed.restore_marks(recovery.feed_marks);
//   service.set_history_provider([&](bgp::Asn a) { return store.history(a); });
//   loop:
//     store.append_epoch_batch(epoch, poll.batch, feed.export_marks());
//     service.ingest(...); service.publish() -> delta;
//     store.append_epoch_delta(delta);           // also the epoch fsync point
//     store.maybe_checkpoint(service);
//   shutdown: store.checkpoint(service);
//
// Failure model: append/checkpoint IO errors (disk full, EIO) degrade the
// store — the error is logged and counted, degraded() flips true, and the
// service keeps running in-memory-only. Recovery treats every unreadable or
// corrupt byte range as absent (truncate-and-warn), never as fatal.
#ifndef BGPCU_STORE_STORE_H
#define BGPCU_STORE_STORE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/service.h"
#include "store/format.h"
#include "store/wal.h"
#include "stream/feed.h"

namespace bgpcu::store {

struct StoreConfig {
  std::string dir;
  SyncPolicy sync = SyncPolicy::kEpoch;
  std::uint64_t segment_max_bytes = 16ull * 1024 * 1024;
  /// Checkpoint cadence for maybe_checkpoint(): a checkpoint is written when
  /// the current epoch is at least this far past the newest one. 0 disables
  /// automatic checkpoints (explicit checkpoint() still works).
  std::uint64_t checkpoint_every_epochs = 16;
  /// Time-based cadence, in seconds: maybe_checkpoint() also fires once this
  /// long has passed since the last checkpoint AND the current epoch has
  /// durable state no checkpoint covers yet. Whichever cadence (epoch or
  /// time) fires first wins. Protects quiet feeds: a trickle of epochs can
  /// sit under checkpoint_every_epochs forever, leaving an ever-growing WAL
  /// tail to replay after a crash. 0 disables the time cadence.
  std::uint64_t checkpoint_interval_sec = 0;
  /// Retained checkpoint history depth (the kHistory substrate). Clamped >= 1.
  std::uint64_t retain_checkpoints = 8;
};

/// What recovery found and did.
struct RecoveryStats {
  bool recovered = false;             ///< Any checkpoint loaded or record replayed.
  std::optional<stream::Epoch> checkpoint_epoch;  ///< Base checkpoint, if any.
  /// Always false: recovery rebuilds the sweep index from the restored
  /// shards and never reads an index image. Kept because the end-to-end
  /// benchmark (bench_pipeline/lifecycle.cc) still reads it.
  bool index_image_loaded = false;
  stream::Epoch resume_epoch = 0;     ///< Engine epoch after replay.
  std::uint64_t batches_replayed = 0;
  std::uint64_t deltas_replayed = 0;
  std::uint64_t truncated_records = 0;
  stream::FeedMarks feed_marks;       ///< Newest durable feed offsets.
  std::vector<std::string> warnings;
  std::uint64_t duration_ms = 0;
};

class Store {
 public:
  /// Opens (creating if needed) the data directory and loads the manifest.
  /// A corrupt or missing manifest falls back to scanning the directory for
  /// decodable checkpoints. Throws StoreError only when the directory cannot
  /// be created/scanned at all.
  explicit Store(StoreConfig config);

  /// Loads the newest valid checkpoint into `service`, replays the WAL tail
  /// (advancing epochs and re-ingesting recorded batches — deterministic,
  /// idempotent at the boundary epoch), seeds the event log with recovered
  /// deltas, and re-anchors the publish baseline. Call once, before serving.
  RecoveryStats recover(api::Service& service);

  /// Logs one epoch's ingest batch + post-poll feed offsets, *before* the
  /// batch is applied to the engine. Degrades on IO failure (returns false).
  bool append_epoch_batch(stream::Epoch epoch, const core::Dataset& batch,
                          stream::FeedMarks marks);

  /// Logs one published epoch delta (skipped when empty) and, under
  /// SyncPolicy::kEpoch, fsyncs the segment — the epoch's durability point.
  /// Degrades on IO failure (returns false).
  bool append_epoch_delta(const api::EpochDelta& delta);

  /// Writes a checkpoint when the cadence says so. Returns true if one was
  /// written. Degrades on IO failure.
  bool maybe_checkpoint(api::Service& service);

  /// Writes a checkpoint now: snapshot + engine state each tmp+renamed, then
  /// the manifest (the commit point), then GC of dead WAL segments, expired
  /// checkpoints and leftover index images. Returns false (degraded) on IO
  /// failure — recovery then uses the previous checkpoint.
  bool checkpoint(api::Service& service);

  /// Class-evolution points for `asn` across the retained checkpoints plus
  /// the WAL delta tail, strictly ascending, class changes only. Safe to
  /// call from query threads.
  [[nodiscard]] std::vector<api::HistoryPoint> history(bgp::Asn asn) const;

  /// True after any append/checkpoint IO failure (in-memory-only mode).
  [[nodiscard]] bool degraded() const;

  [[nodiscard]] Manifest manifest() const;
  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }

 private:
  bool guard_io(const char* what, const std::function<void()>& op);
  void checkpoint_locked(api::Service& service);
  void gc_locked();
  [[nodiscard]] Manifest load_or_rebuild_manifest(std::vector<std::string>& warnings) const;

  StoreConfig config_;
  mutable std::mutex mutex_;
  /// Base of the time cadence: construction, then each written checkpoint.
  std::chrono::steady_clock::time_point last_checkpoint_time_;
  Manifest manifest_;
  std::unique_ptr<WalWriter> wal_;
  bool degraded_ = false;
  stream::FeedMarks last_marks_;  ///< Newest marks passed to append_epoch_batch.
  /// Delta tail newer than the newest checkpoint, for history queries (so a
  /// kHistory never re-reads WAL segments). Pruned at each checkpoint.
  std::vector<api::EpochDelta> recent_deltas_;
  /// Decoded snapshot cache for history assembly, keyed by checkpoint epoch.
  mutable std::map<stream::Epoch, stream::SnapshotPtr> snapshot_cache_;
};

/// Reads the newest decodable checkpoint state in `dir` without a Store:
/// offline tools (bgpcu_store compact/history) use the embedded config
/// fingerprint to construct a matching Service. nullopt when none decodes.
[[nodiscard]] std::optional<StateFile> load_newest_state(const std::string& dir);

/// Builds a ServiceConfig from a state file's fingerprint.
[[nodiscard]] api::ServiceConfig service_config_from(const StateFile& state);

}  // namespace bgpcu::store

#endif  // BGPCU_STORE_STORE_H
