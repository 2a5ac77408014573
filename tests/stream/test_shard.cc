// TupleShard unit tests: dedup/refresh semantics, epoch eviction, live
// peer-column counter maintenance, index rows and the delta journal.
#include <gtest/gtest.h>

#include "stream/shard.h"

namespace bgpcu::stream {
namespace {

core::PathCommTuple tuple(std::vector<bgp::Asn> path, std::vector<bgp::CommunityValue> comms = {}) {
  core::PathCommTuple t;
  t.path = std::move(path);
  t.comms = std::move(comms);
  bgp::normalize(t.comms);
  return t;
}

TEST(TupleShard, AcceptThenDuplicateThenRefresh) {
  TupleShard shard;
  EXPECT_EQ(shard.ingest(tuple({1, 2, 3}), 0), IngestOutcome::kAccepted);
  EXPECT_EQ(shard.ingest(tuple({1, 2, 3}), 0), IngestOutcome::kDuplicate);
  EXPECT_EQ(shard.ingest(tuple({1, 2, 3}), 1), IngestOutcome::kRefreshed);
  EXPECT_EQ(shard.size(), 1u);
}

TEST(TupleShard, RejectsEmptyAndOverlongPaths) {
  TupleShard shard;
  EXPECT_EQ(shard.ingest(tuple({}), 0), IngestOutcome::kRejected);
  std::vector<bgp::Asn> longpath;
  for (bgp::Asn a = 1; a <= core::kMaxPathLength + 1; ++a) longpath.push_back(a);
  EXPECT_EQ(shard.ingest(tuple(std::move(longpath)), 0), IngestOutcome::kRejected);
  EXPECT_EQ(shard.size(), 0u);
}

TEST(TupleShard, LivePeerCountersTrackIngest) {
  TupleShard shard;
  // Peer 10 tags (community with upper == 10), peer 20 stays silent.
  EXPECT_EQ(shard.ingest(tuple({10, 2}, {bgp::CommunityValue::regular(10, 1)}), 0),
            IngestOutcome::kAccepted);
  EXPECT_EQ(shard.ingest(tuple({10, 3}, {bgp::CommunityValue::regular(10, 2)}), 0),
            IngestOutcome::kAccepted);
  EXPECT_EQ(shard.ingest(tuple({20, 2}), 0), IngestOutcome::kAccepted);

  const auto k10 = shard.live_counters(10);
  EXPECT_EQ(k10.t, 2u);
  EXPECT_EQ(k10.s, 0u);
  const auto k20 = shard.live_counters(20);
  EXPECT_EQ(k20.t, 0u);
  EXPECT_EQ(k20.s, 1u);
  EXPECT_EQ(shard.live_counters(999).t + shard.live_counters(999).s, 0u);
}

TEST(TupleShard, RefreshDoesNotDoubleCount) {
  TupleShard shard;
  (void)shard.ingest(tuple({10, 2}, {bgp::CommunityValue::regular(10, 1)}), 0);
  (void)shard.ingest(tuple({10, 2}, {bgp::CommunityValue::regular(10, 1)}), 3);
  EXPECT_EQ(shard.live_counters(10).t, 1u);
}

TEST(TupleShard, EvictionRemovesTuplesAndCounters) {
  TupleShard shard;
  (void)shard.ingest(tuple({10, 2}, {bgp::CommunityValue::regular(10, 1)}), 0);
  (void)shard.ingest(tuple({10, 3}), 2);
  EXPECT_EQ(shard.evict_older_than(1), 1u);  // drops the epoch-0 tuple
  EXPECT_EQ(shard.size(), 1u);
  const auto k = shard.live_counters(10);
  EXPECT_EQ(k.t, 0u);
  EXPECT_EQ(k.s, 1u);
  EXPECT_EQ(shard.evict_older_than(3), 1u);
  EXPECT_EQ(shard.size(), 0u);
  EXPECT_EQ(shard.live_counters(10), core::UsageCounters{});
}

TEST(TupleShard, RefreshProtectsFromEviction) {
  TupleShard shard;
  (void)shard.ingest(tuple({10, 2}), 0);
  (void)shard.ingest(tuple({10, 2}), 5);  // refresh at epoch 5
  EXPECT_EQ(shard.evict_older_than(3), 0u);
  EXPECT_EQ(shard.size(), 1u);
}

TEST(TupleShard, RefreshedOldTupleOutlivesNewerUnrefreshedOne) {
  TupleShard shard;
  (void)shard.ingest(tuple({10, 1}), 0);  // old, refreshed below
  (void)shard.ingest(tuple({10, 2}), 1);  // newer, never refreshed
  EXPECT_EQ(shard.ingest(tuple({10, 1}), 2), IngestOutcome::kRefreshed);
  EXPECT_EQ(shard.evict_older_than(2), 1u);
  std::vector<StoredTuple> live;
  shard.export_tuples(live);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].tuple.path, (std::vector<bgp::Asn>{10, 1}));
  EXPECT_EQ(live[0].last_seen, 2u);
}

TEST(TupleShard, EvictionStopsAtFirstSurvivor) {
  TupleShard shard;
  for (Epoch e = 0; e < 4; ++e) {
    (void)shard.ingest(tuple({10, static_cast<bgp::Asn>(100 + e)}), e);
    (void)shard.ingest(tuple({20, static_cast<bgp::Asn>(100 + e)}), e);
  }
  EXPECT_EQ(shard.evict_older_than(2), 4u);  // epochs 0 and 1
  EXPECT_EQ(shard.evict_older_than(2), 0u);  // the oldest is now a survivor
  std::vector<StoredTuple> live;
  shard.export_tuples(live);
  ASSERT_EQ(live.size(), 4u);
  for (const auto& stored : live) EXPECT_GE(stored.last_seen, 2u);
}

TEST(TupleShard, ExportComesOutInLastSeenOrder) {
  TupleShard shard;
  (void)shard.ingest(tuple({10, 1}), 0);
  (void)shard.ingest(tuple({10, 2}), 0);
  (void)shard.ingest(tuple({10, 3}), 1);
  (void)shard.ingest(tuple({10, 1}), 2);  // refresh moves it to the new end
  (void)shard.ingest(tuple({10, 4}), 2);
  (void)shard.ingest(tuple({10, 2}), 3);
  std::vector<StoredTuple> live;
  shard.export_tuples(live);
  ASSERT_EQ(live.size(), 4u);
  std::vector<Epoch> seen;
  for (const auto& stored : live) seen.push_back(stored.last_seen);
  EXPECT_EQ(seen, (std::vector<Epoch>{1, 2, 2, 3}));
  EXPECT_EQ(live[1].tuple.path, (std::vector<bgp::Asn>{10, 1}));  // refreshed first
  EXPECT_EQ(live[2].tuple.path, (std::vector<bgp::Asn>{10, 4}));
}

TEST(TupleShard, VersionBumpsOnMutationOnly) {
  TupleShard shard;
  const auto v0 = shard.version();
  (void)shard.ingest(tuple({1, 2}), 0);
  const auto v1 = shard.version();
  EXPECT_GT(v1, v0);
  (void)shard.ingest(tuple({1, 2}), 0);  // duplicate: no change
  EXPECT_EQ(shard.version(), v1);
  EXPECT_EQ(shard.evict_older_than(0), 0u);  // nothing evicted: no change
  EXPECT_EQ(shard.version(), v1);
  (void)shard.evict_older_than(1);
  EXPECT_GT(shard.version(), v1);
}

TEST(TupleShard, CollectRowsComeOutOldestFirstWithKeysAndMasks) {
  // Keys 3, 7, 11 in accept order; the refresh at epoch 2 moves {10,20} to
  // the newest end, so the rows come out {30,40}, {50}, {10,20}.
  TupleShard shard(/*first_key=*/3, /*key_stride=*/4);
  (void)shard.ingest(tuple({10, 20}, {bgp::CommunityValue::regular(20, 7)}), 0);
  (void)shard.ingest(tuple({30, 40}, {bgp::CommunityValue::regular(30, 1)}), 1);
  (void)shard.ingest(tuple({50}), 1);
  EXPECT_EQ(shard.ingest(tuple({10, 20}, {bgp::CommunityValue::regular(20, 7)}), 2),
            IngestOutcome::kRefreshed);

  std::vector<core::IndexRow> rows;
  shard.collect_rows(rows);
  ASSERT_EQ(rows.size(), 3u);
  const auto path_of = [](const core::IndexRow& row) {
    return std::vector<bgp::Asn>(row.path.begin(), row.path.end());
  };
  EXPECT_EQ(path_of(rows[0]), (std::vector<bgp::Asn>{30, 40}));
  EXPECT_EQ(rows[0].key, 7u);
  EXPECT_EQ(rows[0].upper_mask, 0b01u);
  EXPECT_EQ(path_of(rows[1]), (std::vector<bgp::Asn>{50}));
  EXPECT_EQ(rows[1].key, 11u);
  EXPECT_EQ(rows[1].upper_mask, 0u);
  EXPECT_EQ(path_of(rows[2]), (std::vector<bgp::Asn>{10, 20}));
  EXPECT_EQ(rows[2].key, 3u);
  EXPECT_EQ(rows[2].upper_mask, 0b10u);
}

TEST(TupleShardJournal, AddThenEvictBetweenDrainsCancels) {
  // A tuple accepted and evicted within one drain window would only make the
  // index insert and immediately tombstone a row; the journal cancels the
  // pair instead of emitting it.
  TupleShard shard;
  (void)shard.ingest(tuple({1, 2}), 0);
  (void)shard.ingest(tuple({3, 4}), 1);
  EXPECT_EQ(shard.evict_older_than(1), 1u);  // kills {1,2}

  std::vector<core::IndexDelta> deltas;
  ASSERT_TRUE(shard.drain_deltas(deltas));
  ASSERT_EQ(deltas.size(), 1u);  // only the surviving {3,4} add
  EXPECT_EQ(deltas[0].kind, core::IndexDelta::Kind::kAdd);
  EXPECT_EQ(shard.journal_dedups(), 1u);
}

TEST(TupleShardJournal, RemoveOfDrainedAddIsEmitted) {
  // Once the add has been drained the index holds the row, so a later evict
  // must emit its remove — cancellation only applies within a drain window.
  TupleShard shard;
  (void)shard.ingest(tuple({1, 2}), 0);
  std::vector<core::IndexDelta> deltas;
  ASSERT_TRUE(shard.drain_deltas(deltas));
  ASSERT_EQ(deltas.size(), 1u);
  const auto key = deltas[0].key;

  EXPECT_EQ(shard.evict_older_than(1), 1u);
  deltas.clear();
  ASSERT_TRUE(shard.drain_deltas(deltas));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].kind, core::IndexDelta::Kind::kRemove);
  EXPECT_EQ(deltas[0].key, key);
  EXPECT_EQ(shard.journal_dedups(), 0u);
}

TEST(TupleShardJournal, CancellationPreservesSurvivorOrder) {
  TupleShard shard;
  (void)shard.ingest(tuple({1, 2}), 0);   // will cancel
  (void)shard.ingest(tuple({3, 4}), 1);   // survives
  (void)shard.ingest(tuple({5, 6}), 1);   // survives
  EXPECT_EQ(shard.evict_older_than(1), 1u);
  (void)shard.ingest(tuple({7, 8}), 1);   // survives, after the evict

  std::vector<core::IndexDelta> deltas;
  ASSERT_TRUE(shard.drain_deltas(deltas));
  ASSERT_EQ(deltas.size(), 3u);
  for (const auto& d : deltas) EXPECT_EQ(d.kind, core::IndexDelta::Kind::kAdd);
  EXPECT_LT(deltas[0].key, deltas[1].key);
  EXPECT_LT(deltas[1].key, deltas[2].key);
}

TEST(TupleShardJournal, ReingestAfterCancelledPairUsesFreshKey) {
  // Keys are never reused: re-accepting the same tuple after a cancelled
  // add+remove pair journals a brand-new add with a later key.
  TupleShard shard;
  (void)shard.ingest(tuple({1, 2}), 0);
  EXPECT_EQ(shard.evict_older_than(1), 1u);
  (void)shard.ingest(tuple({1, 2}), 1);

  std::vector<core::IndexDelta> deltas;
  ASSERT_TRUE(shard.drain_deltas(deltas));
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].kind, core::IndexDelta::Kind::kAdd);
  EXPECT_EQ(shard.journal_dedups(), 1u);
}

TEST(TupleShardJournal, OverflowClearsDedupeState) {
  // Overflow drops the buffered journal (and everything journaled until the
  // next drain); the drain reports it and the shard starts a clean window
  // with no stale cancellations or pending adds.
  TupleShard shard(0, 1, /*journal_cap=*/2);
  (void)shard.ingest(tuple({1, 2}), 0);
  (void)shard.ingest(tuple({3, 4}), 0);
  (void)shard.ingest(tuple({5, 6}), 0);     // third entry: over the cap
  EXPECT_EQ(shard.evict_older_than(1), 3u);  // removes dropped while overflowed

  std::vector<core::IndexDelta> deltas;
  EXPECT_FALSE(shard.drain_deltas(deltas));
  EXPECT_TRUE(deltas.empty());

  // The journal works again after the overflow drain, including dedupe.
  (void)shard.ingest(tuple({7, 8}), 1);
  EXPECT_EQ(shard.evict_older_than(2), 1u);
  ASSERT_TRUE(shard.drain_deltas(deltas));
  EXPECT_TRUE(deltas.empty());  // the add+remove pair cancelled
  EXPECT_EQ(shard.journal_dedups(), 1u);
}

}  // namespace
}  // namespace bgpcu::stream
