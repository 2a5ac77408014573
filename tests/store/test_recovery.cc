// Recovery-path tests: a fresh Service + Store pair recovering a data
// directory must reproduce the uninterrupted run exactly — engine counter
// map, epoch, feed marks, event-log contents — whether the directory holds
// WAL only, checkpoint only, or checkpoint + tail, and whether an older
// store wrote it. Degraded inputs (corrupt manifest, corrupt newest
// checkpoint) recover what survives and warn.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "store/io.h"
#include "store/store.h"
#include "store_test_util.h"
#include "topology/rng.h"

namespace bgpcu::store {
namespace {

namespace fs = std::filesystem;
using testutil::TempDir;

/// Runs `epochs` live epochs through service + store in the daemon's order,
/// returning the per-epoch batches so a second run can be compared.
std::vector<core::Dataset> run_live(api::Service& service, Store& store,
                                    std::size_t epochs, std::uint64_t seed,
                                    std::optional<std::size_t> checkpoint_at = {}) {
  topology::Rng rng(seed);
  std::vector<core::Dataset> batches;
  for (std::size_t e = 0; e < epochs; ++e) {
    if (e > 0) service.advance_epoch();
    batches.push_back(testutil::random_dataset(rng, 30 + rng.below(30)));
    store.append_epoch_batch(service.epoch(), batches.back(), testutil::marks_at(e));
    service.ingest(batches.back());
    store.append_epoch_delta(service.publish());
    if (checkpoint_at && e == *checkpoint_at) {
      EXPECT_TRUE(store.checkpoint(service));
    }
  }
  return batches;
}

core::CounterMap snapshot_map(const api::Service& service) {
  return service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map();
}

void corrupt_file(const std::string& path) {
  auto bytes = io::read_file(path);
  bytes[bytes.size() / 2] ^= 0x20;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Recovery, EmptyDirectoryRecoversNothing) {
  TempDir dir("rec_empty");
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str()});
  const auto rec = store.recover(service);
  EXPECT_FALSE(rec.recovered);
  EXPECT_FALSE(rec.checkpoint_epoch.has_value());
  EXPECT_EQ(rec.resume_epoch, 0u);
  EXPECT_EQ(rec.batches_replayed, 0u);
  EXPECT_TRUE(rec.warnings.empty());
  EXPECT_TRUE(snapshot_map(service).empty());
}

TEST(Recovery, WalOnlyReplayMatchesLiveRun) {
  TempDir dir("rec_wal_only");
  core::CounterMap live_map;
  stream::Epoch live_epoch = 0;
  std::vector<api::EpochDelta> live_replay;
  {
    api::Service service(testutil::test_service_config());
    Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
    run_live(service, store, 5, 1001);
    live_map = snapshot_map(service);
    live_epoch = service.epoch();
    live_replay = service.replay(0);
  }

  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  const auto rec = store.recover(service);
  EXPECT_TRUE(rec.recovered);
  EXPECT_FALSE(rec.checkpoint_epoch.has_value()) << "no checkpoint was written";
  EXPECT_EQ(rec.resume_epoch, live_epoch);
  EXPECT_EQ(rec.batches_replayed, 5u);
  EXPECT_EQ(rec.truncated_records, 0u);
  EXPECT_EQ(rec.feed_marks, testutil::marks_at(4)) << "newest durable marks win";
  EXPECT_EQ(snapshot_map(service), live_map) << "replay is bit-identical";
  EXPECT_EQ(service.replay(0), live_replay) << "event log survives the restart";

  // rebaseline(): the replayed history must not be re-announced.
  EXPECT_TRUE(service.publish().changes.empty());
}

TEST(Recovery, CheckpointPlusTailReplayMatchesLiveRun) {
  TempDir dir("rec_ckpt_tail");
  core::CounterMap live_map;
  stream::Epoch live_epoch = 0;
  {
    api::Service service(testutil::test_service_config());
    Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
    run_live(service, store, 8, 1002, /*checkpoint_at=*/4);
    live_map = snapshot_map(service);
    live_epoch = service.epoch();
  }

  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  const auto rec = store.recover(service);
  EXPECT_TRUE(rec.recovered);
  ASSERT_TRUE(rec.checkpoint_epoch.has_value());
  EXPECT_EQ(*rec.checkpoint_epoch, 4u);
  EXPECT_EQ(rec.resume_epoch, live_epoch);
  // Only the post-checkpoint tail replays: epochs 5..7 (the checkpoint's own
  // epoch was rotated into a dead, GC'd segment).
  EXPECT_EQ(rec.batches_replayed, 3u);
  EXPECT_EQ(snapshot_map(service), live_map);

  const auto stats = service.query({.kind = api::QueryKind::kStats}).stats;
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->epoch, live_epoch) << "epoch continuity through kStats";
}

// Data dirs checked in under tests/data, written by the store as it was
// before it stopped persisting the sweep index, each ending in a checkpoint
// at its last epoch (4 shards, testutil::random_dataset batches):
//   store_legacy_index  window 3, checkpoints at epochs 3, 6 and 7, each
//                       with its ckpt-*.index image beside .state and .snap
//   store_legacy_flag0  window 0, checkpoints at epochs 2 and 4, written
//                       with that store's index mode off: the retired flag
//                       byte of each .state is 0 and no .index exists
// Recovery must reproduce the newest .snap byte for byte, and the next
// checkpoint's GC must leave no .index file behind. With `corrupt_images`,
// every .index in the copy is damaged first; recovery never opens one, so
// nothing may change.
void expect_legacy_dir_recovers(const char* fixture, bool corrupt_images = false) {
  TempDir dir(fixture);
  fs::copy(fs::path(BGPCU_TEST_DATA_DIR) / fixture, dir.str(),
           fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  if (corrupt_images) {
    std::size_t corrupted = 0;
    for (const auto& entry : fs::directory_iterator(dir.str())) {
      if (entry.path().extension() != ".index") continue;
      corrupt_file(entry.path().string());
      ++corrupted;
    }
    ASSERT_GT(corrupted, 0u) << fixture << " holds no .index file";
  }
  const auto manifest = decode_manifest(io::read_file(manifest_path(dir.str())));
  ASSERT_FALSE(manifest.checkpoints.empty());
  const auto newest = manifest.checkpoints.back();
  const auto newest_snap = io::read_file(checkpoint_path(dir.str(), newest, ".snap"));

  const auto state = load_newest_state(dir.str());
  ASSERT_TRUE(state.has_value());
  auto config = service_config_from(*state);
  config.stream.engine.threads = 1;
  api::Service service(config);
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  const auto rec = store.recover(service);
  EXPECT_TRUE(rec.recovered);
  ASSERT_TRUE(rec.checkpoint_epoch.has_value());
  EXPECT_EQ(*rec.checkpoint_epoch, newest);
  EXPECT_EQ(rec.resume_epoch, newest);
  EXPECT_EQ(rec.batches_replayed, 0u) << "the final checkpoint left no WAL tail";
  EXPECT_FALSE(rec.index_image_loaded);
  EXPECT_TRUE(rec.warnings.empty());
  const auto recovered = service.query({.kind = api::QueryKind::kSnapshot}).snapshot;
  EXPECT_EQ(api::encode_snapshot(*recovered), newest_snap);

  service.advance_epoch();
  ASSERT_TRUE(store.checkpoint(service));
  for (const auto& entry : fs::directory_iterator(dir.str())) {
    EXPECT_NE(entry.path().extension(), ".index") << entry.path();
  }
  // GC took the images only: every older checkpoint is still retained.
  EXPECT_EQ(store.manifest().checkpoints.size(), manifest.checkpoints.size() + 1);
  for (const auto epoch : manifest.checkpoints) {
    EXPECT_TRUE(fs::exists(checkpoint_path(dir.str(), epoch, ".state"))) << epoch;
    EXPECT_TRUE(fs::exists(checkpoint_path(dir.str(), epoch, ".snap"))) << epoch;
  }
}

TEST(Recovery, OlderDataDirWithIndexImagesRecoversToItsNewestSnap) {
  ASSERT_TRUE(fs::exists(fs::path(BGPCU_TEST_DATA_DIR) / "store_legacy_index" /
                         "ckpt-000000000007.index"));
  expect_legacy_dir_recovers("store_legacy_index");
}

// An older store fell back to rebuilding the index from the shards when its
// image failed to decode. Recovery now always rebuilds, so corrupt images
// recover silently (no warning) to the same bytes.
TEST(Recovery, CorruptIndexImageFallsBackToRebuild) {
  expect_legacy_dir_recovers("store_legacy_index", /*corrupt_images=*/true);
}

TEST(Recovery, OlderDataDirWithIndexModeOffRecoversToItsNewestSnap) {
  expect_legacy_dir_recovers("store_legacy_flag0");
}

TEST(Recovery, ManifestLossRebuildsByDirectoryScan) {
  TempDir dir("rec_manifest_loss");
  core::CounterMap live_map;
  stream::Epoch live_epoch = 0;
  {
    api::Service service(testutil::test_service_config());
    Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
    run_live(service, store, 6, 1005, /*checkpoint_at=*/3);
    live_map = snapshot_map(service);
    live_epoch = service.epoch();
  }
  corrupt_file(manifest_path(dir.str()));

  // The scan rediscovers the checkpoint; with the WAL start unknown, replay
  // covers every surviving segment and drops records below the checkpoint.
  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  const auto rec = store.recover(service);
  EXPECT_TRUE(rec.recovered);
  ASSERT_TRUE(rec.checkpoint_epoch.has_value());
  EXPECT_EQ(*rec.checkpoint_epoch, 3u);
  EXPECT_EQ(rec.resume_epoch, live_epoch);
  EXPECT_EQ(snapshot_map(service), live_map);
}

TEST(Recovery, CorruptNewestCheckpointFallsBackToOlderOne) {
  TempDir dir("rec_ckpt_fallback");
  {
    api::Service service(testutil::test_service_config());
    Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
    topology::Rng rng(1006);
    for (std::size_t e = 0; e < 6; ++e) {
      if (e > 0) service.advance_epoch();
      const auto batch = testutil::random_dataset(rng, 25);
      store.append_epoch_batch(service.epoch(), batch, testutil::marks_at(e));
      service.ingest(batch);
      store.append_epoch_delta(service.publish());
      if (e == 2 || e == 5) EXPECT_TRUE(store.checkpoint(service));
    }
  }
  corrupt_file(checkpoint_path(dir.str(), 5, ".state"));

  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  const auto rec = store.recover(service);
  EXPECT_TRUE(rec.recovered);
  ASSERT_TRUE(rec.checkpoint_epoch.has_value());
  EXPECT_EQ(*rec.checkpoint_epoch, 2u) << "older retained checkpoint is the fallback";
  EXPECT_FALSE(rec.warnings.empty());
  // Best-effort state: epochs between the fallback and the corrupt cut may be
  // gone (their segments were GC'd), but recovery must stay coherent and the
  // service must serve.
  EXPECT_NO_THROW((void)snapshot_map(service));
}

TEST(Recovery, TornWalTailLosesAtMostTheLastRecord) {
  TempDir dir("rec_torn_tail");
  core::CounterMap map_before_last;
  {
    api::Service service(testutil::test_service_config());
    Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
    topology::Rng rng(1007);
    for (std::size_t e = 0; e < 4; ++e) {
      if (e > 0) service.advance_epoch();
      const auto batch = testutil::random_dataset(rng, 25);
      store.append_epoch_batch(service.epoch(), batch, testutil::marks_at(e));
      service.ingest(batch);
      if (e == 2) map_before_last = snapshot_map(service);
      // No delta records: the final batch record is the file's last record.
    }
  }
  const auto segments = list_segments(dir.str(), 0);
  ASSERT_EQ(segments.size(), 1u);
  fs::resize_file(segments[0].second, fs::file_size(segments[0].second) - 2);

  api::Service service(testutil::test_service_config());
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  const auto rec = store.recover(service);
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.truncated_records, 1u);
  EXPECT_EQ(rec.batches_replayed, 3u);
  EXPECT_EQ(rec.resume_epoch, 2u);
  EXPECT_FALSE(rec.warnings.empty());
  EXPECT_EQ(snapshot_map(service), map_before_last)
      << "state rolls back exactly one record, no further";
}

TEST(Recovery, WindowedEngineReplaysEvictionsIdentically) {
  TempDir dir("rec_windowed");
  core::CounterMap live_map;
  std::uint64_t live_evicted = 0;
  {
    api::Service service(testutil::test_service_config(4, /*window=*/2));
    Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
    run_live(service, store, 7, 1008);
    live_map = snapshot_map(service);
    live_evicted = service.query({.kind = api::QueryKind::kStats}).stats->evicted_total;
  }
  EXPECT_GT(live_evicted, 0u) << "the scenario must actually age tuples out";

  api::Service service(testutil::test_service_config(4, /*window=*/2));
  Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
  store.recover(service);
  EXPECT_EQ(snapshot_map(service), live_map)
      << "epoch-by-epoch replay reproduces window evictions";
  EXPECT_EQ(service.query({.kind = api::QueryKind::kStats}).stats->evicted_total,
            live_evicted);
}

TEST(Recovery, OfflineConfigFingerprintRebuildsMatchingService) {
  TempDir dir("rec_fingerprint");
  {
    api::Service service(testutil::test_service_config(8, /*window=*/5));
    Store store({.dir = dir.str(), .checkpoint_every_epochs = 0});
    run_live(service, store, 3, 1009, /*checkpoint_at=*/2);
  }
  const auto state = load_newest_state(dir.str());
  ASSERT_TRUE(state.has_value());
  const auto config = service_config_from(*state);
  EXPECT_EQ(config.stream.shards, 8u);
  EXPECT_EQ(config.stream.window_epochs, 5u);
}

}  // namespace
}  // namespace bgpcu::store
