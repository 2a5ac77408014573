// Checkpoint-layer tests: the checkpoint file codecs (state, manifest)
// round-trip and reject corruption, and the Store's
// checkpoint lifecycle holds — manifest-last commit, WAL rotation, retention
// trimming, GC of dead segments and expired checkpoint files, cadence of
// maybe_checkpoint, degraded mode under injected disk-full, and history
// assembly from retained snapshots plus the delta tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <span>
#include <string_view>
#include <thread>

#include "api/service.h"
#include "store/io.h"
#include "store/store.h"
#include "store_test_util.h"
#include "topology/rng.h"

namespace bgpcu::store {
namespace {

namespace fs = std::filesystem;
using testutil::TempDir;

/// Clears the process-wide IO hook even when a test fails mid-way.
struct HookGuard {
  ~HookGuard() { io::set_write_hook({}); }
};

StateFile sample_state(topology::Rng& rng) {
  StateFile state;
  state.shards = 4;
  state.window_epochs = 12;
  state.thresholds.tagger = 0.25;
  state.thresholds.silent = 0.5;
  state.thresholds.forward = 0.75;
  state.thresholds.cleaner = 0.1;
  state.max_columns = 123;
  state.early_stop = false;
  state.engine.epoch = 9;
  state.engine.evicted_total = 77;
  state.marks = testutil::marks_at(9);
  state.engine.shards.resize(2);
  std::uint64_t key = 1;
  for (auto& shard : state.engine.shards) {
    shard.next_key = 100 + key;
    for (const auto& tuple : testutil::random_dataset(rng, 6)) {
      stream::StoredTuple stored;
      stored.last_seen = rng.below(10);
      stored.key = key++;
      stored.tuple = tuple;
      shard.tuples.push_back(std::move(stored));
    }
  }
  return state;
}

/// One live epoch against service + store, the daemon loop's order: log the
/// batch first, apply it, publish, log the delta.
api::EpochDelta run_epoch(api::Service& service, Store& store, const core::Dataset& batch) {
  const auto epoch = service.epoch();
  store.append_epoch_batch(epoch, batch, testutil::marks_at(epoch));
  service.ingest(batch);
  auto delta = service.publish();
  store.append_epoch_delta(delta);
  return delta;
}

TEST(CheckpointFormat, StateFileRoundTrips) {
  topology::Rng rng(11);
  const auto state = sample_state(rng);
  const auto decoded = decode_state_file(encode_state_file(state));

  EXPECT_EQ(decoded.shards, state.shards);
  EXPECT_EQ(decoded.window_epochs, state.window_epochs);
  EXPECT_EQ(decoded.thresholds.tagger, state.thresholds.tagger);
  EXPECT_EQ(decoded.thresholds.silent, state.thresholds.silent);
  EXPECT_EQ(decoded.thresholds.forward, state.thresholds.forward);
  EXPECT_EQ(decoded.thresholds.cleaner, state.thresholds.cleaner);
  EXPECT_EQ(decoded.max_columns, state.max_columns);
  EXPECT_EQ(decoded.early_stop, state.early_stop);
  EXPECT_EQ(decoded.marks, state.marks);
  EXPECT_EQ(decoded.engine.epoch, state.engine.epoch);
  EXPECT_EQ(decoded.engine.evicted_total, state.engine.evicted_total);
  ASSERT_EQ(decoded.engine.shards.size(), state.engine.shards.size());
  for (std::size_t s = 0; s < state.engine.shards.size(); ++s) {
    EXPECT_EQ(decoded.engine.shards[s].next_key, state.engine.shards[s].next_key);
    ASSERT_EQ(decoded.engine.shards[s].tuples.size(), state.engine.shards[s].tuples.size());
    for (std::size_t t = 0; t < state.engine.shards[s].tuples.size(); ++t) {
      EXPECT_EQ(decoded.engine.shards[s].tuples[t].last_seen,
                state.engine.shards[s].tuples[t].last_seen);
      EXPECT_EQ(decoded.engine.shards[s].tuples[t].key,
                state.engine.shards[s].tuples[t].key);
      EXPECT_EQ(decoded.engine.shards[s].tuples[t].tuple,
                state.engine.shards[s].tuples[t].tuple);
    }
  }
}

TEST(CheckpointFormat, StateFileRejectsCorruptionAndTruncation) {
  topology::Rng rng(12);
  const auto bytes = encode_state_file(sample_state(rng));
  auto flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x08;
  EXPECT_THROW((void)decode_state_file(flipped), StoreError);
  for (const std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                                bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW((void)decode_state_file(std::span(bytes.data(), len)), StoreError)
        << "prefix " << len;
  }
}

TEST(CheckpointFormat, ManifestRoundTripsAndEnforcesAscent) {
  Manifest manifest;
  manifest.checkpoints = {3, 7, 20};
  manifest.wal_start_seq = 5;
  const auto decoded = decode_manifest(encode_manifest(manifest));
  EXPECT_EQ(decoded.checkpoints, manifest.checkpoints);
  EXPECT_EQ(decoded.wal_start_seq, 5u);
  EXPECT_TRUE(decoded.has_checkpoint(7));
  EXPECT_FALSE(decoded.has_checkpoint(8));

  Manifest unsorted;
  unsorted.checkpoints = {7, 3};
  EXPECT_THROW((void)encode_manifest(unsorted), StoreError);

  auto flipped = encode_manifest(manifest);
  flipped[6] ^= 0x01;
  EXPECT_THROW((void)decode_manifest(flipped), StoreError);
}

TEST(StoreCheckpoint, WritesFilesRotatesWalAndGcsDeadSegments) {
  TempDir dir("ckpt_basic");
  topology::Rng rng(21);
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});

  for (int e = 0; e < 3; ++e) {
    if (e > 0) service.advance_epoch();
    run_epoch(service, store, testutil::random_dataset(rng, 30));
  }
  EXPECT_FALSE(list_segments(dir.str(), 0).empty());

  ASSERT_TRUE(store.checkpoint(service));
  const auto manifest = store.manifest();
  ASSERT_EQ(manifest.checkpoints.size(), 1u);
  EXPECT_EQ(manifest.checkpoints[0], 2u);
  EXPECT_TRUE(fs::exists(checkpoint_path(dir.str(), 2, ".state")));
  EXPECT_TRUE(fs::exists(checkpoint_path(dir.str(), 2, ".snap")));
  EXPECT_TRUE(fs::exists(manifest_path(dir.str())));
  // Every pre-checkpoint record lived in a now-dead segment; GC removed them
  // and the rotated writer has not minted a new one yet.
  EXPECT_TRUE(list_segments(dir.str(), 0).empty());

  // Post-checkpoint appends land in fresh segments at/after wal_start_seq.
  service.advance_epoch();
  run_epoch(service, store, testutil::random_dataset(rng, 10));
  const auto segments = list_segments(dir.str(), 0);
  ASSERT_FALSE(segments.empty());
  EXPECT_GE(segments.front().first, manifest.wal_start_seq);
}

TEST(StoreCheckpoint, SameEpochCheckpointIsIdempotent) {
  TempDir dir("ckpt_idempotent");
  topology::Rng rng(22);
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  run_epoch(service, store, testutil::random_dataset(rng, 20));

  ASSERT_TRUE(store.checkpoint(service));
  const auto first = store.manifest();
  ASSERT_TRUE(store.checkpoint(service)) << "re-checkpointing the same epoch is benign";
  const auto second = store.manifest();
  EXPECT_EQ(second.checkpoints, first.checkpoints);
  EXPECT_EQ(second.wal_start_seq, first.wal_start_seq);
}

TEST(StoreCheckpoint, RetentionTrimsOldCheckpointFiles) {
  TempDir dir("ckpt_retain");
  topology::Rng rng(23);
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0, .retain_checkpoints = 2});

  for (int e = 0; e < 4; ++e) {
    if (e > 0) service.advance_epoch();
    run_epoch(service, store, testutil::random_dataset(rng, 25));
    ASSERT_TRUE(store.checkpoint(service));
  }
  const auto manifest = store.manifest();
  EXPECT_EQ(manifest.checkpoints, (std::vector<stream::Epoch>{2, 3}));
  EXPECT_FALSE(fs::exists(checkpoint_path(dir.str(), 0, ".state")))
      << "expired checkpoint files are GC'd";
  EXPECT_FALSE(fs::exists(checkpoint_path(dir.str(), 1, ".snap")));
  EXPECT_TRUE(fs::exists(checkpoint_path(dir.str(), 3, ".state")));
}

TEST(StoreCheckpoint, MaybeCheckpointFollowsCadence) {
  TempDir dir("ckpt_cadence");
  topology::Rng rng(24);
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 4});

  std::vector<stream::Epoch> written;
  for (int e = 0; e < 9; ++e) {
    if (e > 0) service.advance_epoch();
    run_epoch(service, store, testutil::random_dataset(rng, 15));
    if (store.maybe_checkpoint(service)) written.push_back(service.epoch());
  }
  EXPECT_EQ(written, (std::vector<stream::Epoch>{4, 8}));

  Store disabled({.dir = dir.str() + "/sub", .checkpoint_every_epochs = 0});
  EXPECT_FALSE(disabled.maybe_checkpoint(service)) << "0 disables the cadence";
}

TEST(StoreCheckpoint, TimeCadenceCheckpointsAQuietFeed) {
  // Regression for the quiet-feed gap: a feed trickling along under
  // checkpoint_every_epochs never checkpointed, so the WAL tail (and
  // crash-replay time) grew without bound. The time cadence fires on wall
  // clock instead — here with ZERO epoch advances since the last durable
  // state — and refuses to rewrite when the current epoch is already
  // covered (a second elapsed interval with nothing new is a no-op).
  TempDir dir("ckpt_time_cadence");
  topology::Rng rng(26);
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(),
               .checkpoint_every_epochs = 100,  // epoch cadence never fires here
               .checkpoint_interval_sec = 1});

  run_epoch(service, store, testutil::random_dataset(rng, 15));
  EXPECT_FALSE(store.maybe_checkpoint(service)) << "interval has not elapsed yet";

  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  EXPECT_TRUE(store.maybe_checkpoint(service)) << "time cadence must fire";
  ASSERT_EQ(store.manifest().checkpoints.size(), 1u);
  EXPECT_EQ(store.manifest().checkpoints[0], service.epoch());

  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  EXPECT_FALSE(store.maybe_checkpoint(service))
      << "current epoch already checkpointed: nothing new to write";
  EXPECT_EQ(store.manifest().checkpoints.size(), 1u);
}

TEST(StoreCheckpoint, DiskFullDegradesInsteadOfThrowing) {
  TempDir dir("ckpt_degraded");
  topology::Rng rng(25);
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  run_epoch(service, store, testutil::random_dataset(rng, 20));
  EXPECT_FALSE(store.degraded());

  HookGuard guard;
  io::set_write_hook([](const char*) { return false; });
  service.advance_epoch();
  EXPECT_FALSE(
      store.append_epoch_batch(service.epoch(), testutil::random_dataset(rng, 5), {}));
  EXPECT_TRUE(store.degraded());
  EXPECT_FALSE(store.checkpoint(service)) << "checkpoint also degrades, never throws";
  io::set_write_hook({});

  // The service itself is unharmed: in-memory serving continues.
  const auto stats = service.query({.kind = api::QueryKind::kStats}).stats;
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->live_tuples, 0u);
}

TEST(StoreCheckpoint, FsyncFailureUnderEpochPolicyDegrades) {
  TempDir dir("ckpt_fsync_fail");
  topology::Rng rng(26);
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .sync = SyncPolicy::kEpoch, .checkpoint_every_epochs = 0});

  HookGuard guard;
  io::set_write_hook([](const char* op) { return std::string_view(op) != "fsync"; });
  service.ingest(testutil::random_dataset(rng, 20));
  store.append_epoch_batch(0, testutil::random_dataset(rng, 5), {});
  const auto delta = service.publish();
  ASSERT_FALSE(delta.changes.empty());
  EXPECT_FALSE(store.append_epoch_delta(delta)) << "the epoch fsync point failed";
  EXPECT_TRUE(store.degraded());
}

TEST(StoreHistory, MatchesRetainedSnapshotsPlusDeltaTail) {
  TempDir dir("ckpt_history");
  topology::Rng rng(27);
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0, .retain_checkpoints = 16});

  // Checkpoint epochs 0..5, then two live epochs that stay WAL-only: their
  // published deltas form the history tail.
  std::map<stream::Epoch, stream::SnapshotPtr> snapshots;
  std::vector<api::EpochDelta> tail;
  for (int e = 0; e < 8; ++e) {
    if (e > 0) service.advance_epoch();
    const auto delta = run_epoch(service, store, testutil::random_dataset(rng, 40));
    if (e <= 5) {
      ASSERT_TRUE(store.checkpoint(service));
      snapshots[service.epoch()] = service.query({.kind = api::QueryKind::kSnapshot}).snapshot;
    } else if (!delta.changes.empty()) {
      tail.push_back(delta);
    }
  }

  // Independent oracle over the same evidence the store retained.
  for (bgp::Asn asn = 1; asn <= 40; ++asn) {
    std::vector<api::HistoryPoint> expected;
    for (const auto& [epoch, snapshot] : snapshots) {
      const auto usage = snapshot->usage(asn);
      if (expected.empty() || !(expected.back().usage == usage)) {
        expected.push_back({epoch, usage});
      }
    }
    for (const auto& delta : tail) {
      for (const auto& change : delta.changes) {
        if (change.asn != asn) continue;
        if (!expected.empty() && delta.epoch <= expected.back().epoch) continue;
        if (expected.empty() || !(expected.back().usage == change.after)) {
          expected.push_back({delta.epoch, change.after});
        }
      }
    }
    EXPECT_EQ(store.history(asn), expected) << "AS " << asn;
  }
}

TEST(StoreHistory, SurvivesColdCacheByRereadingSnapFiles) {
  TempDir dir("ckpt_history_cold");
  topology::Rng rng(28);
  std::vector<api::HistoryPoint> live_history;
  {
    api::Service service(testutil::test_service_config());
    Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
    for (int e = 0; e < 4; ++e) {
      if (e > 0) service.advance_epoch();
      run_epoch(service, store, testutil::random_dataset(rng, 40));
      ASSERT_TRUE(store.checkpoint(service));
    }
    live_history = store.history(17);
  }
  // A brand-new Store has an empty snapshot cache: history decodes the
  // retained .snap files from disk and must agree with the live view.
  const Store reopened({.dir = dir.str()});
  EXPECT_EQ(reopened.history(17), live_history);
  EXPECT_FALSE(live_history.empty());
}

}  // namespace
}  // namespace bgpcu::store
