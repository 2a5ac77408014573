#include "stream/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "obs/wellknown.h"

namespace bgpcu::stream {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - since).count());
}

/// SplitMix64 finalizer: ASNs are dense small integers, so identity hashing
/// would pile consecutive peers into neighboring shards; mix first.
std::uint64_t mix_asn(bgp::Asn asn) noexcept {
  std::uint64_t z = static_cast<std::uint64_t>(asn) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

StreamEngine::StreamEngine(StreamConfig config) : config_(config), index_(config.index) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    // Interleaved key ranges keep shard-assigned tuple keys unique
    // engine-wide without any cross-shard coordination.
    shards_.push_back(std::make_unique<TupleShard>(i, config_.shards,
                                                   config_.incremental_index,
                                                   config_.journal_cap));
  }

  // Force the catalog before registering collectors so no instrumented call
  // site ever has to intern (and take the registry mutex) while holding
  // engine_mutex_ — that ordering is what keeps scrape callbacks that take
  // the shared engine lock deadlock-free.
  (void)obs::metrics();
  auto& registry = obs::Registry::global();
  live_tuples_collector_ = registry.add_collector(
      "bgpcu_stream_live_tuples", "Live unique tuples across all shards", {}, [this] {
        std::size_t total = 0;
        for (const auto& shard : shards_) total += shard->size();
        return static_cast<double>(total);
      });
  epoch_collector_ = registry.add_collector(
      "bgpcu_stream_epoch", "Current ingestion epoch (summed across engines)", {},
      [this] { return static_cast<double>(epoch_.load(std::memory_order_relaxed)); });
  if (config_.incremental_index) {
    index_live_collector_ = registry.add_collector(
        "bgpcu_index_live_rows", "Live rows in the incremental sweep index", {}, [this] {
          const std::shared_lock lock(engine_mutex_);
          return static_cast<double>(index_.live_tuples());
        });
    index_dead_collector_ = registry.add_collector(
        "bgpcu_index_dead_rows",
        "Tombstoned index rows awaiting lazy compaction", {}, [this] {
          const std::shared_lock lock(engine_mutex_);
          return static_cast<double>(index_.dead_rows());
        });
  }
}

std::size_t StreamEngine::shard_of(bgp::Asn peer) const noexcept {
  return static_cast<std::size_t>(mix_asn(peer) % shards_.size());
}

IngestStats StreamEngine::ingest(core::Dataset batch) {
  IngestStats stats;

  // Phase 1, lock-free: normalize, mask, and partition by peer-ASN hash.
  std::vector<std::vector<PreparedTuple>> buckets(shards_.size());
  for (auto& tuple : batch) {
    bgp::normalize(tuple.comms);
    const auto view = core::TupleView::prepare(tuple);
    if (!view) {
      ++stats.rejected;
      continue;
    }
    buckets[shard_of(tuple.peer())].push_back({std::move(tuple), view->upper_mask});
  }
  if (stats.rejected != 0) obs::metrics().stream_ingest_rejected.add(stats.rejected);

  // Phase 2: one lock acquisition per affected shard.
  const std::shared_lock lock(engine_mutex_);
  const Epoch epoch = epoch_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].empty()) continue;
    shards_[i]->ingest_batch(std::move(buckets[i]), epoch, stats);
  }
  return stats;
}

Epoch StreamEngine::advance_epoch() {
  const std::unique_lock lock(engine_mutex_);
  obs::metrics().stream_epoch_advances.add(1);
  const Epoch next = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(next, std::memory_order_relaxed);
  if (config_.window_epochs != 0 && next >= config_.window_epochs) {
    const Epoch min_epoch = next - config_.window_epochs + 1;
    std::uint64_t evicted = 0;
    for (auto& shard : shards_) evicted += shard->evict_older_than(min_epoch);
    evicted_total_.fetch_add(evicted, std::memory_order_relaxed);
  }
  return next;
}

Epoch StreamEngine::epoch() const { return epoch_.load(std::memory_order_relaxed); }

void StreamEngine::apply_pending_deltas_locked(std::size_t live) const {
  auto& m = obs::metrics();
  std::vector<core::IndexDelta> deltas;
  bool journals_intact = index_valid_;
  {
    obs::StageTimer drain_span(m.snapshot_stage_drain_ns);
    for (const auto& shard : shards_) {
      // Drain every shard even after a failure: each drain also clears the
      // shard's journal/overflow state, re-anchoring it at this cut.
      if (!shard->drain_deltas(deltas)) journals_intact = false;
    }
  }
  obs::StageTimer patch_span(m.snapshot_stage_patch_ns);
  if (!journals_intact) {
    // A journal overflowed (or a previous apply died): the deltas no longer
    // reconstruct the live set. Rebuild once from the shards' authoritative
    // state — same cost as a pre-incremental snapshot, then incremental
    // maintenance resumes from this cut.
    index_.reset();
    deltas.clear();
    for (const auto& shard : shards_) shard->export_live(deltas);
    m.index_rebuilds.add(1);
  }
  const auto before = index_.stats();
  index_valid_ = false;  // until apply() lands in full
  index_.apply(std::move(deltas));
  index_valid_ = true;
  const auto& after = index_.stats();
  const auto applied = (after.adds_applied - before.adds_applied) +
                       (after.removes_applied - before.removes_applied);
  if (applied != 0) m.index_deltas_applied.add(applied);
  if (const auto n = after.group_compactions - before.group_compactions) {
    m.index_compactions.add(n);
  }
  if (const auto n = after.full_rebuilds - before.full_rebuilds) m.index_rebuilds.add(n);
  if (index_.live_tuples() != live) {
    // Patched index and shard stores disagreeing means a corrupt journal —
    // a bug, never a recoverable state. Fail loudly; the poisoned index is
    // rebuilt from shard state on the next snapshot (index_valid_ false).
    index_valid_ = false;
    throw std::logic_error("stream: incremental index diverged from shard state");
  }
}

SnapshotPtr StreamEngine::snapshot() const {
  // Fast path, shared lock only: an unchanged engine serves the cached
  // handle without excluding ingest, live queries, or other cache hits.
  // cached_/cached_version_ are written only under the exclusive lock, so
  // reading them under a shared lock is race-free.
  auto& m = obs::metrics();
  {
    const std::shared_lock lock(engine_mutex_);
    std::uint64_t version = 0;
    for (const auto& shard : shards_) version += shard->version();
    if (cached_ && cached_version_ == version) {
      m.snapshot_cache_hits.add(1);
      return cached_;
    }
  }

  // Collection phase, under the exclusive lock: stamp a consistent cut of
  // the live tuple set and bring the sweep input up to date with it. In
  // incremental mode that patches the persistent index with the journaled
  // deltas since the last cut (work proportional to the churn); otherwise
  // it copies the live tuples into an owned index (one full pass).
  core::IndexedDataset rebuilt;
  const core::IndexedDataset* sweep_input = nullptr;
  std::uint64_t version = 0;
  {
    std::unique_lock lock(engine_mutex_);
    std::size_t live = 0;
    for (;;) {
      obs::StageTimer stamp_span(m.snapshot_stage_stamp_ns);
      version = 0;
      live = 0;
      for (const auto& shard : shards_) {
        version += shard->version();
        live += shard->size();
      }
      stamp_span.stop();  // the cv wait below must not count as stamp time
      if (cached_ && cached_version_ == version) {
        m.snapshot_cache_hits.add(1);
        return cached_;
      }
      // Single-flight: while any sweep is in flight, wait for its install
      // instead of starting a duplicate — most waiters then hit the cache
      // on re-check. The re-read stamp keeps the eventual cut valid for
      // this call: it names state observed after the call began. Sweeps
      // were fully serialized by the old exclusive-lock protocol too; the
      // difference is that ingest/live queries no longer wait with them.
      // Single-flight is also what lets an unlocked sweep read the shared
      // incremental index: nothing mutates it until this sweep installs.
      if (!sweep_inflight_) break;
      snapshot_cv_.wait(lock);
    }
    sweep_inflight_ = true;
    // From here on every exit path must clear the flag and notify, or
    // every future snapshot() would wait forever on the cv.
    const auto locked_at = Clock::now();
    try {
      if (config_.incremental_index) {
        apply_pending_deltas_locked(live);
        sweep_input = &index_.dataset();
      } else {
        std::vector<core::TupleView> views;
        views.reserve(live);
        for (const auto& shard : shards_) shard->collect_views(views);
        rebuilt = core::IndexedDataset(views);
        sweep_input = &rebuilt;
      }
    } catch (...) {
      sweep_inflight_ = false;  // lock still held here
      snapshot_cv_.notify_all();
      throw;
    }
    const auto locked_ns = elapsed_ns(locked_at);
    m.snapshot_locked_ns.observe(locked_ns);
    m.snapshot_locked_last_ns.set(static_cast<std::int64_t>(locked_ns));
    m.snapshot_sweeps.add(1);
  }

  // Sweep phase, no lock held: ingest, live queries, and other snapshots
  // all proceed concurrently.
  SnapshotPtr result;
  try {
    if (after_collect_hook_) after_collect_hook_();
    obs::StageTimer sweep_span(m.snapshot_stage_sweep_ns);
    result = std::make_shared<const core::InferenceResult>(
        core::sweep_columns(*sweep_input, config_.engine));
  } catch (...) {
    const std::unique_lock lock(engine_mutex_);
    sweep_inflight_ = false;
    snapshot_cv_.notify_all();
    throw;
  }

  // Install phase: shard versions are monotone, so a larger stamp means a
  // newer cut — never replace the cache with an older concurrent sweep.
  {
    obs::StageTimer install_span(m.snapshot_stage_install_ns);
    const std::unique_lock lock(engine_mutex_);
    sweep_inflight_ = false;
    if (!cached_ || cached_version_ <= version) {
      cached_ = result;
      cached_version_ = version;
    }
  }
  snapshot_cv_.notify_all();
  return result;
}

CheckpointState StreamEngine::checkpoint_state() const {
  std::unique_lock lock(engine_mutex_);
  // Wait out any in-flight sweep: the collect phase below mutates the shared
  // index, which must stay immutable while an unlocked sweep reads it.
  while (sweep_inflight_) snapshot_cv_.wait(lock);

  CheckpointState out;
  if (config_.incremental_index) {
    std::size_t live = 0;
    for (const auto& shard : shards_) live += shard->size();
    // Drain the journals into the index so the exported image is current and
    // a restore starts with empty journals (same invariant as post-snapshot).
    apply_pending_deltas_locked(live);
    index_.serialize_image(out.index_image);
  }
  out.state.epoch = epoch_.load(std::memory_order_relaxed);
  out.state.evicted_total = evicted_total_.load(std::memory_order_relaxed);
  out.state.shards.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    out.state.shards[i].next_key = shards_[i]->next_key();
    shards_[i]->export_tuples(out.state.shards[i].tuples);
  }
  return out;
}

void StreamEngine::restore_state(EngineState state, std::span<const std::uint8_t> index_image) {
  std::unique_lock lock(engine_mutex_);
  while (sweep_inflight_) snapshot_cv_.wait(lock);

  epoch_.store(state.epoch, std::memory_order_relaxed);
  evicted_total_.store(state.evicted_total, std::memory_order_relaxed);

  const bool exact = state.shards.size() == shards_.size();
  if (exact) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->restore_tuples(std::move(state.shards[i].tuples),
                                 state.shards[i].next_key);
    }
  } else {
    // The checkpoint was taken under a different --shards: re-partition by
    // peer hash and hand out fresh interleaved keys (the persisted index
    // image is keyed by the old layout and cannot be reused).
    std::vector<std::vector<StoredTuple>> buckets(shards_.size());
    for (auto& shard_state : state.shards) {
      for (auto& stored : shard_state.tuples) {
        buckets[shard_of(stored.tuple.peer())].push_back(std::move(stored));
      }
    }
    const auto stride = static_cast<std::uint64_t>(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::uint64_t key = i;
      for (auto& stored : buckets[i]) {
        stored.key = key;
        key += stride;
      }
      shards_[i]->restore_tuples(std::move(buckets[i]), key);
    }
  }

  cached_.reset();
  cached_version_ = 0;
  if (config_.incremental_index) {
    std::size_t live = 0;
    for (const auto& shard : shards_) live += shard->size();
    // Adopt the persisted image only when it provably matches the restored
    // shards; anything else falls back to one full rebuild at the next
    // snapshot (index_valid_ false), which is always correct.
    if (exact && !index_image.empty() && index_.load_image(index_image) &&
        index_.live_tuples() == live) {
      index_valid_ = true;
    } else {
      index_.reset();
      index_valid_ = false;
    }
  }
}

core::UsageCounters StreamEngine::live_counters(bgp::Asn asn) const {
  const std::shared_lock lock(engine_mutex_);
  return shards_[shard_of(asn)]->live_counters(asn);
}

std::size_t StreamEngine::live_tuples() const {
  const std::shared_lock lock(engine_mutex_);
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

std::uint64_t StreamEngine::evicted_total() const {
  return evicted_total_.load(std::memory_order_relaxed);
}

}  // namespace bgpcu::stream
