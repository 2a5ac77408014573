// The stream subsystem's correctness contract, checked property-style over
// randomized scenarios: at any epoch, StreamEngine::snapshot() must be
// bit-for-bit identical (same CounterMap) to a fresh ColumnEngine::run over
// the deduplicated union of the tuples currently inside the window. The
// window oracle is reimplemented independently here (a last-seen-epoch map)
// so engine and test cannot share an aging bug.
//
// Scenario space: random datasets (recurring ASNs, random communities) split
// into random per-epoch batches with re-observations, ingested into engines
// with varying shard counts, window sizes, and sweep lane counts. 25 seeds
// x 10 configurations = 250 randomized scenarios (the threads > 1 shapes pin
// the parallel kernel to the serial oracle through the snapshot path; the
// window = 1 churn shapes turn the whole population over every epoch, so the
// incremental index lives through heavy tombstoning, AS universes vanishing
// and reappearing, and whole path-length groups dying; the restore shape
// (`_rebuild`) replaces the engine every few epochs with a fresh one
// restored from checkpoint_state(), sometimes under a different shard
// count, so the bulk index build runs and incremental maintenance carries on
// from it; the tiny journal-cap shape forces overflow -> bulk build every
// snapshot).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "core/engine.h"
#include "stream/engine.h"
#include "topology/rng.h"

namespace bgpcu::stream {
namespace {

// Random (path, comm) dataset in the style of tests/core/test_engine_property:
// ASNs 1..40 so ASes recur in different positions, random path lengths,
// random community subsets keyed on path members plus off-path admins.
core::Dataset random_dataset(topology::Rng& rng, std::size_t tuples) {
  core::Dataset d;
  for (std::size_t i = 0; i < tuples; ++i) {
    core::PathCommTuple t;
    const std::size_t len = 1 + rng.below(6);
    while (t.path.size() < len) {
      const bgp::Asn asn = 1 + static_cast<bgp::Asn>(rng.below(40));
      if (std::find(t.path.begin(), t.path.end(), asn) == t.path.end()) t.path.push_back(asn);
    }
    for (const auto asn : t.path) {
      if (rng.chance(0.3)) {
        t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(asn),
                                                       static_cast<std::uint16_t>(rng.below(4))));
      }
    }
    if (rng.chance(0.1)) {
      t.comms.push_back(
          bgp::CommunityValue::regular(static_cast<std::uint16_t>(100 + rng.below(20)), 1));
    }
    d.push_back(std::move(t));
  }
  return d;
}

struct ScenarioShape {
  std::size_t shards;
  std::uint64_t window;  ///< 0 = unbounded.
  std::size_t epochs;
  double reobserve_prob;  ///< P(a tuple from an earlier batch repeats).
  /// Sweep lanes for the engine under test (the oracle always sweeps
  /// serially, so threads > 1 shapes also pin parallel ≡ serial end-to-end
  /// through the snapshot path). 0 = auto.
  std::size_t threads = 0;
  /// Every this many epochs, replace the engine with a fresh one restored
  /// from its checkpoint_state() between the epoch's ingest and its
  /// snapshot; about one restore in three also changes the shard count (the
  /// re-shard path). 0 = never.
  std::size_t restore_every = 0;
  /// Per-shard journal-entry cap; a tiny value forces the overflow ->
  /// bulk-build path on (nearly) every snapshot.
  std::size_t journal_cap = TupleShard::kJournalCap;
  /// Shrunk compaction/rebuild thresholds so churn shapes exercise lazy
  /// compaction and id reclamation at test scale, not only in production.
  bool tiny_index_thresholds = false;
};

class StreamEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, ScenarioShape>> {};

TEST_P(StreamEquivalence, SnapshotEqualsBatchRunAtEveryEpoch) {
  const auto [seed, shape] = GetParam();
  topology::Rng rng(seed * 7919 + shape.shards);

  StreamConfig config;
  config.engine.threads = shape.threads;
  config.shards = shape.shards;
  config.window_epochs = shape.window;
  config.journal_cap = shape.journal_cap;
  if (shape.tiny_index_thresholds) {
    config.index.compact_min_dead_rows = 8;
    config.index.rebuild_min_dead_ids = 8;
  }
  auto engine = std::make_unique<StreamEngine>(config);

  // Independent window oracle: normalized tuple -> last-seen epoch.
  std::unordered_map<core::PathCommTuple, Epoch> oracle;
  core::Dataset pool;  // earlier tuples available for re-observation

  for (std::size_t e = 0; e < shape.epochs; ++e) {
    if (e > 0) engine->advance_epoch();
    const Epoch epoch = engine->epoch();

    core::Dataset batch = random_dataset(rng, 40 + rng.below(60));
    for (const auto& old_tuple : pool) {
      if (rng.chance(shape.reobserve_prob)) batch.push_back(old_tuple);
    }
    pool.insert(pool.end(), batch.begin(), batch.end());
    if (pool.size() > 600) pool.erase(pool.begin(), pool.begin() + 300);

    // Feed the oracle a normalized copy (the engine normalizes on ingest).
    for (auto copy : batch) {
      bgp::normalize(copy.comms);
      if (copy.path.empty() || copy.path.size() > core::kMaxPathLength) continue;
      oracle[std::move(copy)] = epoch;
    }
    (void)engine->ingest(std::move(batch));

    if (shape.restore_every != 0 && (e + 1) % shape.restore_every == 0) {
      // (shards + r) % 9 + 1 with r < 8 never lands back on `shards`.
      if (rng.chance(0.3)) config.shards = (config.shards + rng.below(8)) % 9 + 1;
      auto restored = std::make_unique<StreamEngine>(config);
      restored->restore_state(engine->checkpoint_state());
      engine = std::move(restored);
    }

    // Age the oracle exactly per the documented window semantics.
    if (shape.window != 0) {
      for (auto it = oracle.begin(); it != oracle.end();) {
        if (epoch >= shape.window && it->second < epoch - shape.window + 1) {
          it = oracle.erase(it);
        } else {
          ++it;
        }
      }
    }

    core::Dataset live;
    live.reserve(oracle.size());
    for (const auto& [tuple, last] : oracle) live.push_back(tuple);
    core::deduplicate(live);

    ASSERT_EQ(engine->live_tuples(), live.size()) << "epoch " << epoch;
    const auto snap = engine->snapshot();
    const auto batch_run = core::ColumnEngine().run(live);
    ASSERT_EQ(snap->counter_map(), batch_run.counter_map())
        << "seed " << seed << " shards " << config.shards << " window " << shape.window
        << " epoch " << epoch;
    EXPECT_EQ(snap->columns_swept(), batch_run.columns_swept());
  }
}

constexpr ScenarioShape kShapes[] = {
    {.shards = 1, .window = 0, .epochs = 5, .reobserve_prob = 0.0},
    {.shards = 4, .window = 0, .epochs = 5, .reobserve_prob = 0.05},
    {.shards = 7, .window = 2, .epochs = 6, .reobserve_prob = 0.10},
    {.shards = 4, .window = 3, .epochs = 7, .reobserve_prob = 0.15},
    {.shards = 16, .window = 1, .epochs = 5, .reobserve_prob = 0.05},
    {.shards = 4, .window = 0, .epochs = 5, .reobserve_prob = 0.05, .threads = 4},
    {.shards = 7, .window = 2, .epochs = 6, .reobserve_prob = 0.10, .threads = 8},
    // Churn-heavy: window 1 turns the whole population over each epoch
    // (every snapshot is mostly tombstones + fresh adds; ASes vanish and
    // reappear; whole path-length groups die), with the maintenance
    // thresholds shrunk so compactions and id-reclaiming rebuilds fire at
    // test scale — serial and multi-lane.
    {.shards = 4, .window = 1, .epochs = 9, .reobserve_prob = 0.0,
     .tiny_index_thresholds = true},
    {.shards = 7, .window = 1, .epochs = 9, .reobserve_prob = 0.10, .threads = 4,
     .tiny_index_thresholds = true},
    // Restart every other epoch: recovery's bulk build, then incremental
    // maintenance of the bulk-built rows, pinned to the same oracle. Named
    // `_rebuild`: each restore rebuilds the index from the restored shards.
    {.shards = 4, .window = 2, .epochs = 8, .reobserve_prob = 0.10, .restore_every = 2},
};

INSTANTIATE_TEST_SUITE_P(
    Scenarios, StreamEquivalence,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 26), ::testing::ValuesIn(kShapes)),
    [](const auto& info) {
      const auto& shape = std::get<1>(info.param);
      return "seed" + std::to_string(std::get<0>(info.param)) + "_sh" +
             std::to_string(shape.shards) + "_w" + std::to_string(shape.window) + "_t" +
             std::to_string(shape.threads) + (shape.restore_every != 0 ? "_rebuild" : "") +
             (shape.tiny_index_thresholds ? "_churn" : "");
    });

// The overflow path, end to end and randomized: a journal cap small enough
// that every epoch overflows at least some shard, so snapshots repeatedly
// bulk-build the index from the shards' authoritative state and incremental
// maintenance re-anchors afterwards. One shape is enough — the interesting
// state space is inside the engine, not the shape grid.
INSTANTIATE_TEST_SUITE_P(
    JournalOverflow, StreamEquivalence,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 11),
                       ::testing::Values(ScenarioShape{.shards = 3, .window = 2,
                                                       .epochs = 7, .reobserve_prob = 0.10,
                                                       .journal_cap = 5})),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_cap" +
             std::to_string(std::get<1>(info.param).journal_cap);
    });

}  // namespace
}  // namespace bgpcu::stream
