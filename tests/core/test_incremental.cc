// core::IncrementalIndex contract: an index patched by any legal add/remove
// delta sequence, or bulk-built from a live row set and patched onwards,
// sweeps bit-identically to a from-scratch IndexedDataset built over the
// same live tuple set — through tombstones, lazy group compaction, and
// threshold-triggered full rebuilds. These tests drive the triggers
// deterministically (shrunk thresholds) and randomly (churn scripts); the
// stream equivalence scenarios cover the same contract end-to-end through
// StreamEngine::snapshot().
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "topology/rng.h"

namespace bgpcu::core {
namespace {

/// A tuple the tests own: path + the communities that give it `tagged`
/// upper-field hits at the flagged positions.
PathCommTuple make_tuple(std::vector<bgp::Asn> path, std::uint32_t tag_mask) {
  PathCommTuple t;
  t.path = std::move(path);
  for (std::size_t i = 0; i < t.path.size(); ++i) {
    if ((tag_mask >> i) & 1u) {
      t.comms.push_back(
          bgp::CommunityValue::regular(static_cast<std::uint16_t>(t.path[i]), 1));
    }
  }
  bgp::normalize(t.comms);
  return t;
}

IndexDelta add_delta(std::uint64_t key, const PathCommTuple& tuple) {
  const auto view = TupleView::prepare(tuple);
  EXPECT_TRUE(view.has_value());
  return {IndexDelta::Kind::kAdd, key, view ? view->upper_mask : 0, tuple.path};
}

IndexDelta remove_delta(std::uint64_t key) {
  return {IndexDelta::Kind::kRemove, key, 0, {}};
}

/// Sweeps both the incrementally maintained dataset and a from-scratch build
/// over `live`, asserting bit-identical results (counters and columns).
void expect_sweep_equivalence(const IncrementalIndex& index,
                              const std::vector<PathCommTuple>& live,
                              const EngineConfig& config = {}) {
  std::vector<TupleView> views;
  views.reserve(live.size());
  for (const auto& tuple : live) {
    if (auto view = TupleView::prepare(tuple)) views.push_back(*view);
  }
  const IndexedDataset scratch(views);
  ASSERT_EQ(index.dataset().tuple_count(), scratch.tuple_count());
  EXPECT_EQ(index.dataset().max_len(), scratch.max_len());
  const auto incremental = sweep_columns(index.dataset(), config);
  const auto reference = sweep_columns(scratch, config);
  EXPECT_EQ(incremental.counter_map(), reference.counter_map());
  EXPECT_EQ(incremental.columns_swept(), reference.columns_swept());
}

TEST(IncrementalIndex, EmptyIndexSweepsEmpty) {
  IncrementalIndex index;
  EXPECT_EQ(index.live_tuples(), 0u);
  EXPECT_EQ(index.dataset().max_len(), 0u);
  const auto result = sweep_columns(index.dataset(), {});
  EXPECT_TRUE(result.counter_map().empty());
  EXPECT_EQ(result.columns_swept(), 0u);
}

TEST(IncrementalIndex, PureAddsMatchFromScratchBuild) {
  IncrementalIndex index;
  std::vector<PathCommTuple> live = {
      make_tuple({10, 20, 30}, 0b001), make_tuple({10, 20, 30}, 0b011),
      make_tuple({20, 30}, 0b10),      make_tuple({40}, 0b1),
      make_tuple({30, 10, 40, 20}, 0b0101),
  };
  std::vector<IndexDelta> deltas;
  for (std::size_t i = 0; i < live.size(); ++i) deltas.push_back(add_delta(i, live[i]));
  index.apply(std::move(deltas));
  EXPECT_EQ(index.stats().adds_applied, live.size());
  expect_sweep_equivalence(index, live);
}

TEST(IncrementalIndex, TombstonedRowsAreInvisibleToTheSweep) {
  IncrementalIndex index;
  std::vector<PathCommTuple> tuples;
  std::vector<IndexDelta> deltas;
  for (std::uint64_t i = 0; i < 10; ++i) {
    tuples.push_back(make_tuple({static_cast<bgp::Asn>(1 + i % 4), 50, 60}, 0b001));
    tuples.back().comms.push_back(
        bgp::CommunityValue::regular(static_cast<std::uint16_t>(100 + i), 1));
    bgp::normalize(tuples.back().comms);
    deltas.push_back(add_delta(i, tuples[i]));
  }
  index.apply(std::move(deltas));

  // Remove three of them; the group keeps its rows (thresholds unreached)
  // but the sweep must not see the dead ones.
  index.apply({remove_delta(1), remove_delta(4), remove_delta(7)});
  EXPECT_EQ(index.stats().group_compactions, 0u);
  std::vector<PathCommTuple> live;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i != 1 && i != 4 && i != 7) live.push_back(tuples[i]);
  }
  expect_sweep_equivalence(index, live);
}

TEST(IncrementalIndex, MaxLenShrinksWhenTheLongestGroupDies) {
  IncrementalIndex index;
  const auto long_tuple = make_tuple({10, 20, 30, 40, 50}, 0b00001);
  const auto short_tuple = make_tuple({10, 20}, 0b01);
  index.apply({add_delta(0, long_tuple), add_delta(1, short_tuple)});
  EXPECT_EQ(index.dataset().max_len(), 5u);

  index.apply({remove_delta(0)});
  EXPECT_EQ(index.dataset().max_len(), 2u);
  expect_sweep_equivalence(index, {short_tuple});

  // And it grows back when long paths return.
  index.apply({add_delta(2, long_tuple)});
  EXPECT_EQ(index.dataset().max_len(), 5u);
  expect_sweep_equivalence(index, {short_tuple, long_tuple});
}

TEST(IncrementalIndex, VanishedAsReappearsWithTheSameResult) {
  IncrementalIndex index;
  const auto with_42 = make_tuple({42, 10, 20}, 0b001);
  const auto without_42 = make_tuple({10, 20}, 0b01);
  index.apply({add_delta(0, with_42), add_delta(1, without_42)});
  expect_sweep_equivalence(index, {with_42, without_42});

  // AS 42 vanishes entirely: its dense id stays behind with zero live
  // references, which must be invisible in the swept result.
  index.apply({remove_delta(0)});
  expect_sweep_equivalence(index, {without_42});

  index.apply({add_delta(2, with_42)});
  expect_sweep_equivalence(index, {with_42, without_42});
}

TEST(IncrementalIndex, GroupCompactionTriggersAtThresholdAndPreservesResults) {
  IncrementalIndexConfig config;
  config.compact_min_dead_rows = 4;
  IncrementalIndex index(config);

  std::vector<PathCommTuple> tuples;
  std::vector<IndexDelta> deltas;
  for (std::uint64_t i = 0; i < 8; ++i) {
    tuples.push_back(make_tuple({static_cast<bgp::Asn>(1 + i), 90, 91}, 0b001));
    deltas.push_back(add_delta(i, tuples[i]));
  }
  index.apply(std::move(deltas));

  // Three removals: under both gates (dead < 4), no compaction yet.
  index.apply({remove_delta(0), remove_delta(1), remove_delta(2)});
  EXPECT_EQ(index.stats().group_compactions, 0u);
  // The fourth reaches min_dead_rows with dead (4) >= half of rows (8).
  index.apply({remove_delta(3)});
  EXPECT_EQ(index.stats().group_compactions, 1u);

  const std::vector<PathCommTuple> live(tuples.begin() + 4, tuples.end());
  expect_sweep_equivalence(index, live);

  // The compacted group's flat arrays are dense again: no alive bitmap.
  for (const auto& group : index.dataset().groups()) {
    if (group.len == 3) {
      EXPECT_TRUE(group.alive.empty());
      EXPECT_EQ(group.count(), live.size());
    }
  }
}

TEST(IncrementalIndex, FullRebuildReclaimsDeadIdsAndPreservesResults) {
  IncrementalIndexConfig config;
  config.rebuild_min_dead_ids = 4;
  IncrementalIndex index(config);

  // Six tuples over disjoint ASN pairs: removing four tuples kills eight of
  // the twelve ids — past both rebuild gates (>= 4 dead, >= half).
  std::vector<PathCommTuple> tuples;
  std::vector<IndexDelta> deltas;
  for (std::uint64_t i = 0; i < 6; ++i) {
    tuples.push_back(make_tuple(
        {static_cast<bgp::Asn>(100 + 2 * i), static_cast<bgp::Asn>(101 + 2 * i)}, 0b01));
    deltas.push_back(add_delta(i, tuples[i]));
  }
  index.apply(std::move(deltas));
  EXPECT_EQ(index.dataset().asn_count(), 12u);
  EXPECT_EQ(index.stats().full_rebuilds, 0u);

  index.apply({remove_delta(0), remove_delta(1), remove_delta(2), remove_delta(3)});
  EXPECT_EQ(index.stats().full_rebuilds, 1u);
  // Ids were reassigned over live rows only; dead ASes are gone.
  EXPECT_EQ(index.dataset().asn_count(), 4u);
  for (const auto& group : index.dataset().groups()) EXPECT_TRUE(group.alive.empty());

  const std::vector<PathCommTuple> live(tuples.begin() + 4, tuples.end());
  expect_sweep_equivalence(index, live);

  // The rebuilt index keeps accepting deltas against the remapped ids.
  const auto extra = make_tuple({100, 108}, 0b10);  // one dead AS returns
  index.apply({add_delta(40, extra)});
  expect_sweep_equivalence(index, {tuples[4], tuples[5], extra});
}

TEST(IncrementalIndex, CorruptDeltaSequencesThrow) {
  IncrementalIndex index;
  index.apply({add_delta(7, make_tuple({10, 20}, 0b01))});
  EXPECT_THROW(index.apply({remove_delta(8)}), std::invalid_argument);
  EXPECT_THROW(index.apply({add_delta(7, make_tuple({30}, 0b1))}), std::invalid_argument);
  // A removed key is gone for good: removing it twice is corrupt too.
  index.apply({remove_delta(7)});
  EXPECT_THROW(index.apply({remove_delta(7)}), std::invalid_argument);

  // A bulk build holds its rows to the same rule: one key, one row.
  const std::vector<bgp::Asn> a = {10, 20};
  const std::vector<bgp::Asn> b = {30};
  const std::vector<IndexRow> rows = {{a, 5, 0b01}, {b, 5, 0b1}};
  EXPECT_THROW(index.build(rows), std::invalid_argument);
}

TEST(IncrementalIndex, ResetDropsTuplesButKeepsLifetimeStats) {
  IncrementalIndex index;
  index.apply({add_delta(0, make_tuple({10, 20}, 0b01))});
  const auto adds_before = index.stats().adds_applied;
  index.reset();
  EXPECT_EQ(index.live_tuples(), 0u);
  EXPECT_EQ(index.dataset().asn_count(), 0u);
  EXPECT_EQ(index.stats().adds_applied, adds_before);
  // Keys are reusable after a reset (the engine re-exports live tuples under
  // their original keys after an overflow).
  index.apply({add_delta(0, make_tuple({10, 20}, 0b01))});
  expect_sweep_equivalence(index, {make_tuple({10, 20}, 0b01)});
}

// Randomized churn script: every epoch adds fresh tuples, expires the
// tuples added before the previous epoch and removes a random subset of the
// rest, checking sweep equivalence (serial and multi-lane) after each
// batch. Shrunk thresholds keep compactions and rebuilds firing
// throughout instead of only at scale. At random epochs the index is first
// replaced by a bulk build over the live set, as the stream engine does
// after an overflow or a restore; the script's later removes must find the
// bulk-built rows by key.
TEST(IncrementalIndex, RandomChurnStaysEquivalentThroughCompactionAndRebuild) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    topology::Rng rng(seed * 7477);
    IncrementalIndexConfig config;
    config.compact_min_dead_rows = 8;
    config.rebuild_min_dead_ids = 8;
    IncrementalIndex index(config);

    std::unordered_map<std::uint64_t, PathCommTuple> live;
    std::uint64_t next_key = 0;
    std::size_t builds = 0;
    std::uint64_t previous_epoch_start = 0;  // first key added last epoch
    for (int epoch = 0; epoch < 12; ++epoch) {
      if (epoch > 0 && rng.chance(0.3)) {
        std::vector<std::uint64_t> keys;
        for (const auto& [key, tuple] : live) keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        std::vector<IndexRow> rows;
        for (const auto key : keys) {
          const auto view = TupleView::prepare(live.at(key));
          ASSERT_TRUE(view.has_value());
          rows.push_back({live.at(key).path, key, view->upper_mask});
        }
        const auto stats_before = index.stats();
        index.build(rows);
        ++builds;
        EXPECT_EQ(index.stats(), stats_before) << "a bulk build applies no deltas";
        EXPECT_EQ(index.dead_rows(), 0u);
        EXPECT_EQ(index.dead_ids(), 0u);
        std::vector<PathCommTuple> built;
        for (const auto key : keys) built.push_back(live.at(key));
        expect_sweep_equivalence(index, built);
      }
      std::vector<IndexDelta> deltas;
      const std::uint64_t expire_below = previous_epoch_start;
      previous_epoch_start = next_key;
      const std::size_t adds = 10 + rng.below(30);
      for (std::size_t i = 0; i < adds; ++i) {
        std::vector<bgp::Asn> path;
        const std::size_t len = 1 + rng.below(6);
        while (path.size() < len) {
          // The AS universe drifts by 20 per epoch, so ASes vanish as their
          // tuples expire and dead ids pile up past the reclaim threshold.
          const bgp::Asn asn = 1 + static_cast<bgp::Asn>(20 * epoch + rng.below(40));
          if (std::find(path.begin(), path.end(), asn) == path.end()) path.push_back(asn);
        }
        auto tuple = make_tuple(std::move(path), static_cast<std::uint32_t>(rng.below(64)));
        // Distinct serial community so duplicates cannot collide.
        tuple.comms.push_back(bgp::CommunityValue::regular(
            static_cast<std::uint16_t>(1000 + next_key), 2));
        bgp::normalize(tuple.comms);
        deltas.push_back(add_delta(next_key, tuple));
        live.emplace(next_key, std::move(tuple));
        ++next_key;
      }
      std::vector<std::uint64_t> keys;
      keys.reserve(live.size());
      for (const auto& [key, tuple] : live) keys.push_back(key);
      std::sort(keys.begin(), keys.end());
      for (const auto key : keys) {
        // Tuples older than the previous epoch expire, as under a stream
        // window; the rest die at random.
        if (key < expire_below || rng.chance(0.35)) {
          deltas.push_back(remove_delta(key));
          live.erase(key);
        }
      }
      index.apply(std::move(deltas));

      std::vector<PathCommTuple> remaining;
      remaining.reserve(live.size());
      for (const auto& [key, tuple] : live) remaining.push_back(tuple);
      expect_sweep_equivalence(index, remaining);
      EngineConfig lanes;
      lanes.threads = 4;
      expect_sweep_equivalence(index, remaining, lanes);
    }
    // The shrunk thresholds and the bulk build must actually fire for this
    // test to mean much.
    EXPECT_GT(index.stats().group_compactions, 0u) << "seed " << seed;
    EXPECT_GT(index.stats().full_rebuilds, 0u) << "seed " << seed;
    EXPECT_GT(builds, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bgpcu::core
