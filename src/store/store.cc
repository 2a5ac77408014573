#include "store/store.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "api/wire.h"
#include "obs/log.h"
#include "obs/wellknown.h"

namespace bgpcu::store {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - since).count());
}

/// The per-class history points hidden in one snapshot: the class of `asn`
/// as that snapshot published it.
core::UsageClass usage_at(const stream::SnapshotPtr& snapshot, bgp::Asn asn) {
  return snapshot->usage(asn);
}

}  // namespace

Store::Store(StoreConfig config)
    : config_(std::move(config)), last_checkpoint_time_(Clock::now()) {
  config_.retain_checkpoints = std::max<std::uint64_t>(1, config_.retain_checkpoints);
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    throw StoreError("store: cannot create " + config_.dir + ": " + ec.message());
  }
  std::vector<std::string> warnings;
  manifest_ = load_or_rebuild_manifest(warnings);
  for (const auto& warning : warnings) {
    obs::log_warn("store_open", {{"warning", warning}});
  }
  // The writer starts past every existing segment so no file that might end
  // in a torn record is ever appended to. Lazy: read-only opens (inspect,
  // verify, history tools) must not mint empty segments.
  std::uint64_t next_seq = manifest_.wal_start_seq;
  for (const auto& [seq, path] : list_segments(config_.dir, 0)) next_seq = seq + 1;
  wal_ = std::make_unique<WalWriter>(config_.dir, config_.sync, config_.segment_max_bytes,
                                     next_seq);
}

Manifest Store::load_or_rebuild_manifest(std::vector<std::string>& warnings) const {
  try {
    return decode_manifest(io::read_file(manifest_path(config_.dir)));
  } catch (const StoreError& error) {
    std::error_code probe;
    if (fs::exists(manifest_path(config_.dir), probe)) {
      warnings.push_back(std::string("manifest unreadable, rebuilding by scan: ") +
                         error.what());
    }
  }
  // Fallback: any decodable .state file names a usable checkpoint. With no
  // manifest the WAL start is unknown; replay from segment 0 — stale records
  // below the checkpoint epoch are filtered during recovery anyway.
  Manifest manifest;
  std::error_code ec;
  fs::directory_iterator it(config_.dir, ec);
  if (ec) return manifest;
  for (fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec) || ec) continue;
    stream::Epoch epoch = 0;
    if (!parse_checkpoint_name(it->path().filename().string(), ".state", epoch)) continue;
    try {
      (void)decode_state_file(io::read_file(it->path().string()));
    } catch (const StoreError&) {
      continue;
    }
    manifest.checkpoints.push_back(epoch);
  }
  std::sort(manifest.checkpoints.begin(), manifest.checkpoints.end());
  manifest.checkpoints.erase(
      std::unique(manifest.checkpoints.begin(), manifest.checkpoints.end()),
      manifest.checkpoints.end());
  return manifest;
}

bool Store::guard_io(const char* what, const std::function<void()>& op) {
  try {
    op();
    return true;
  } catch (const StoreError& error) {
    degraded_ = true;
    obs::metrics().store_io_errors.add(1);
    obs::log_error("store_io_error", {{"op", what}, {"error", error.what()}});
    return false;
  }
}

RecoveryStats Store::recover(api::Service& service) {
  const std::lock_guard lock(mutex_);
  const auto started = Clock::now();
  RecoveryStats rec;

  // 1. Newest valid checkpoint wins; older retained ones are fallbacks.
  StateFile state;
  bool have_state = false;
  for (auto it = manifest_.checkpoints.rbegin(); it != manifest_.checkpoints.rend(); ++it) {
    try {
      state = decode_state_file(io::read_file(checkpoint_path(config_.dir, *it, ".state")));
    } catch (const StoreError& error) {
      rec.warnings.push_back("checkpoint " + std::to_string(*it) +
                             " unusable: " + error.what());
      continue;
    }
    rec.checkpoint_epoch = *it;
    have_state = true;
    break;
  }

  stream::FeedMarks marks;
  if (have_state) {
    const auto& config = service.config().stream;
    if (state.shards != config.shards) {
      rec.warnings.push_back("checkpoint taken under shards=" + std::to_string(state.shards) +
                             ", redistributing for shards=" + std::to_string(config.shards));
    }
    if (state.window_epochs != config.window_epochs) {
      rec.warnings.push_back("checkpoint window_epochs=" + std::to_string(state.window_epochs) +
                             " differs from running config; aging may shift");
    }
    marks = state.marks;
    const std::size_t restored = [&] {
      std::size_t total = 0;
      for (const auto& shard : state.engine.shards) total += shard.tuples.size();
      return total;
    }();
    // The sweep index is not persisted: the first snapshot after the replay
    // below bulk-builds it from the restored shards.
    service.restore_engine(std::move(state.engine));
    obs::log_info("store_checkpoint_loaded",
                  {{"epoch", std::to_string(*rec.checkpoint_epoch)},
                   {"tuples", std::to_string(restored)}});
  }
  const stream::Epoch base_epoch = rec.checkpoint_epoch.value_or(0);

  // 2. Replay the WAL tail. Batch records re-ingest exactly what the live
  // run ingested (the feed's sanitized output was logged before apply), and
  // the epoch advances in between reproduce the same window evictions.
  auto wal = read_wal(config_.dir, manifest_.wal_start_seq);
  rec.truncated_records = wal.truncated_records;
  for (auto& warning : wal.warnings) rec.warnings.push_back(std::move(warning));
  std::vector<api::EpochDelta> deltas;
  for (auto& record : wal.records) {
    if (record.epoch < base_epoch) continue;  // already inside the checkpoint
    while (service.epoch() < record.epoch) service.advance_epoch();
    switch (record.kind) {
      case RecordKind::kEpochBatch:
        service.ingest(std::move(record.batch));
        if (!record.marks.empty()) marks = std::move(record.marks);
        ++rec.batches_replayed;
        break;
      case RecordKind::kEpochDelta: {
        try {
          auto delta = api::decode_delta_batch(record.delta_frame);
          deltas.push_back(std::move(delta));
          ++rec.deltas_replayed;
        } catch (const std::exception& error) {
          rec.warnings.push_back(std::string("undecodable delta record at epoch ") +
                                 std::to_string(record.epoch) + ": " + error.what());
        }
        break;
      }
    }
  }
  rec.recovered = have_state || !wal.records.empty();
  rec.resume_epoch = service.epoch();
  rec.feed_marks = marks;
  last_marks_ = std::move(marks);

  // 3. Seed the facade: event-log ring for replay subscribers, the delta
  // tail for history queries, and the publish baseline so replayed history
  // is not re-announced.
  recent_deltas_.clear();
  for (const auto& delta : deltas) {
    if (delta.epoch > base_epoch || (!have_state && delta.epoch == base_epoch)) {
      recent_deltas_.push_back(delta);
    }
  }
  service.preload_events(std::move(deltas));
  service.rebaseline();

  const auto ns = elapsed_ns(started);
  rec.duration_ms = ns / 1'000'000;
  auto& m = obs::metrics();
  m.store_recoveries.add(1);
  m.store_recovery_ns.observe(ns);
  if (const auto n = rec.batches_replayed + rec.deltas_replayed) {
    m.store_replayed_records.add(n);
  }
  for (const auto& warning : rec.warnings) {
    obs::log_warn("store_recovery", {{"warning", warning}});
  }
  obs::log_info("store_recovered",
                {{"resume_epoch", std::to_string(rec.resume_epoch)},
                 {"batches", std::to_string(rec.batches_replayed)},
                 {"deltas", std::to_string(rec.deltas_replayed)},
                 {"ms", std::to_string(rec.duration_ms)}});
  return rec;
}

bool Store::append_epoch_batch(stream::Epoch epoch, const core::Dataset& batch,
                               stream::FeedMarks marks) {
  const std::lock_guard lock(mutex_);
  // Encode straight from the caller's batch — no WalRecord deep copy; the
  // caller still needs the batch for ingest.
  std::vector<std::uint8_t> bytes;
  encode_batch_record(bytes, epoch, marks, batch);
  last_marks_ = std::move(marks);
  return guard_io("wal_append_batch", [&] { wal_->append_encoded(bytes); });
}

bool Store::append_epoch_delta(const api::EpochDelta& delta) {
  const std::lock_guard lock(mutex_);
  bool ok = true;
  if (!delta.changes.empty()) {
    WalRecord record;
    record.kind = RecordKind::kEpochDelta;
    record.epoch = delta.epoch;
    record.delta_frame = api::encode_delta_batch(delta);
    ok = guard_io("wal_append_delta", [&] { wal_->append(record); });
    if (ok) recent_deltas_.push_back(delta);
  }
  if (ok && config_.sync == SyncPolicy::kEpoch) {
    ok = guard_io("wal_sync", [&] { wal_->sync(); });
  }
  return ok;
}

bool Store::maybe_checkpoint(api::Service& service) {
  {
    const std::lock_guard lock(mutex_);
    const auto epoch = service.epoch();
    const stream::Epoch newest =
        manifest_.checkpoints.empty() ? 0 : manifest_.checkpoints.back();
    bool due = config_.checkpoint_every_epochs != 0 &&
               epoch >= newest + config_.checkpoint_every_epochs;
    // Time cadence: catches quiet feeds whose epoch trickle never reaches
    // the epoch cadence, so the WAL tail (and crash-replay time) stays
    // bounded by wall clock too. Only fires when the current epoch would
    // actually yield a new checkpoint — checkpoint_locked no-ops on an
    // epoch already covered, and a pointless cycle would still churn IO.
    if (!due && config_.checkpoint_interval_sec != 0 &&
        !manifest_.has_checkpoint(epoch)) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                               Clock::now() - last_checkpoint_time_)
                               .count();
      due = elapsed >= static_cast<std::int64_t>(config_.checkpoint_interval_sec);
    }
    if (!due) return false;
  }
  return checkpoint(service);
}

bool Store::checkpoint(api::Service& service) {
  const std::lock_guard lock(mutex_);
  return guard_io("checkpoint", [&] { checkpoint_locked(service); });
}

void Store::checkpoint_locked(api::Service& service) {
  const auto started = Clock::now();
  // Snapshot before exporting state, so the .snap file is the published
  // view at this cut.
  const auto snapshot = service.query({.kind = api::QueryKind::kSnapshot}).snapshot;
  auto engine_state = service.checkpoint_state();
  const auto epoch = engine_state.epoch;
  if (manifest_.has_checkpoint(epoch)) return;  // nothing new this epoch

  StateFile state;
  const auto& stream_config = service.config().stream;
  state.shards = stream_config.shards;
  state.window_epochs = stream_config.window_epochs;
  state.thresholds = stream_config.engine.thresholds;
  state.max_columns = stream_config.engine.max_columns;
  state.early_stop = stream_config.engine.early_stop;
  state.engine = std::move(engine_state);
  state.marks = last_marks_;

  std::uint64_t bytes_written = 0;
  const auto snap_bytes = api::encode_snapshot(*snapshot);
  io::write_file_atomic(checkpoint_path(config_.dir, epoch, ".snap"), snap_bytes);
  bytes_written += snap_bytes.size();
  const auto state_bytes = encode_state_file(state);
  io::write_file_atomic(checkpoint_path(config_.dir, epoch, ".state"), state_bytes);
  bytes_written += state_bytes.size();

  // Rotate so every record logged before this cut lives in a dead segment;
  // the manifest (written last, atomically) is the commit point.
  Manifest next = manifest_;
  next.checkpoints.push_back(epoch);
  while (next.checkpoints.size() > config_.retain_checkpoints) {
    next.checkpoints.erase(next.checkpoints.begin());
  }
  next.wal_start_seq = wal_->rotate();
  const auto manifest_bytes = encode_manifest(next);
  io::write_file_atomic(manifest_path(config_.dir), manifest_bytes);
  bytes_written += manifest_bytes.size();
  manifest_ = std::move(next);

  // Only state strictly newer than this checkpoint stays in the history
  // tail; the checkpoint's own snapshot now covers everything up to it.
  recent_deltas_.erase(
      std::remove_if(recent_deltas_.begin(), recent_deltas_.end(),
                     [epoch](const api::EpochDelta& d) { return d.epoch <= epoch; }),
      recent_deltas_.end());
  snapshot_cache_.emplace(epoch, snapshot);
  gc_locked();

  last_checkpoint_time_ = Clock::now();
  const auto ns = elapsed_ns(started);
  auto& m = obs::metrics();
  m.store_checkpoints.add(1);
  m.store_checkpoint_bytes.add(bytes_written);
  m.store_checkpoint_ns.observe(ns);
  obs::log_info("store_checkpoint",
                {{"epoch", std::to_string(epoch)},
                 {"bytes", std::to_string(bytes_written)},
                 {"ms", std::to_string(ns / 1'000'000)}});
}

void Store::gc_locked() {
  std::error_code ec;
  fs::directory_iterator it(config_.dir, ec);
  if (ec) return;
  std::uint64_t removed_segments = 0;
  for (fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec) || ec) continue;
    const auto name = it->path().filename().string();
    std::uint64_t seq = 0;
    stream::Epoch epoch = 0;
    bool doomed = false;
    if (parse_segment_name(name, seq)) {
      doomed = seq < manifest_.wal_start_seq;
      if (doomed) ++removed_segments;
    } else if (parse_checkpoint_name(name, ".snap", epoch) ||
               parse_checkpoint_name(name, ".state", epoch)) {
      // Expired retained history, plus orphans from checkpoints that crashed
      // before their manifest landed.
      doomed = !manifest_.has_checkpoint(epoch);
    } else if (parse_checkpoint_name(name, ".index", epoch)) {
      // Index images written by older stores: no checkpoint owns one now.
      doomed = true;
    }
    if (doomed) fs::remove(it->path(), ec);
  }
  for (auto cached = snapshot_cache_.begin(); cached != snapshot_cache_.end();) {
    if (!manifest_.has_checkpoint(cached->first)) {
      cached = snapshot_cache_.erase(cached);
    } else {
      ++cached;
    }
  }
  if (removed_segments != 0) obs::metrics().store_gc_segments.add(removed_segments);
}

std::vector<api::HistoryPoint> Store::history(bgp::Asn asn) const {
  const std::lock_guard lock(mutex_);
  std::vector<api::HistoryPoint> points;
  for (const auto epoch : manifest_.checkpoints) {
    stream::SnapshotPtr snapshot;
    const auto cached = snapshot_cache_.find(epoch);
    if (cached != snapshot_cache_.end()) {
      snapshot = cached->second;
    } else {
      try {
        snapshot = std::make_shared<const core::InferenceResult>(api::decode_snapshot(
            io::read_file(checkpoint_path(config_.dir, epoch, ".snap"))));
      } catch (const std::exception&) {
        continue;  // unreadable retained snapshot: skip the point
      }
      snapshot_cache_.emplace(epoch, snapshot);
    }
    const auto usage = usage_at(snapshot, asn);
    if (points.empty() || !(points.back().usage == usage)) {
      points.push_back({epoch, usage});
    }
  }
  // The delta tail refines the evolution past the newest checkpoint.
  for (const auto& delta : recent_deltas_) {
    for (const auto& change : delta.changes) {
      if (change.asn != asn) continue;
      if (!points.empty() && delta.epoch <= points.back().epoch) continue;
      if (points.empty() || !(points.back().usage == change.after)) {
        points.push_back({delta.epoch, change.after});
      }
    }
  }
  return points;
}

bool Store::degraded() const {
  const std::lock_guard lock(mutex_);
  return degraded_;
}

Manifest Store::manifest() const {
  const std::lock_guard lock(mutex_);
  return manifest_;
}

std::optional<StateFile> load_newest_state(const std::string& dir) {
  std::vector<stream::Epoch> epochs;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return std::nullopt;
  for (fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec) || ec) continue;
    stream::Epoch epoch = 0;
    if (parse_checkpoint_name(it->path().filename().string(), ".state", epoch)) {
      epochs.push_back(epoch);
    }
  }
  std::sort(epochs.begin(), epochs.end());
  for (auto rit = epochs.rbegin(); rit != epochs.rend(); ++rit) {
    try {
      return decode_state_file(io::read_file(checkpoint_path(dir, *rit, ".state")));
    } catch (const StoreError&) {
      continue;
    }
  }
  return std::nullopt;
}

api::ServiceConfig service_config_from(const StateFile& state) {
  api::ServiceConfig config;
  config.stream.shards = static_cast<std::size_t>(state.shards);
  config.stream.window_epochs = state.window_epochs;
  config.stream.engine.thresholds = state.thresholds;
  config.stream.engine.max_columns = static_cast<std::size_t>(state.max_columns);
  config.stream.engine.early_stop = state.early_stop;
  return config;
}

}  // namespace bgpcu::store
