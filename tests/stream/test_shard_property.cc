// TupleShard's recency-list eviction against the full-map walk it replaced
// (tests/stream/reference_shard.h), over seeded scripts. Each step offers
// one to three batches that mix new tuples, refreshes of older ones and
// same-epoch duplicates, advances the epoch by 0-3, and evicts what fell out
// of a W-epoch window, W in {1, 2, 5, 48}. At random points the shard is
// restored from its own export, either as exported or shuffled; a shuffled
// export stands in for a checkpoint written in hash order. After every step
// the two sides must agree on the ingest outcomes, the evicted count, the
// surviving set, live_counters for every peer, and the drained deltas (adds
// in order, removes as a set).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "reference_shard.h"
#include "topology/rng.h"

namespace bgpcu::stream {
namespace {

constexpr bgp::Asn kPeers = 12;  ///< Peer ASNs are 1..kPeers.

/// A normalized tuple that passes TupleView::prepare; ASNs and communities
/// come from small ranges so draws collide often.
core::PathCommTuple random_tuple(topology::Rng& rng) {
  core::PathCommTuple t;
  t.path.push_back(1 + static_cast<bgp::Asn>(rng.below(kPeers)));
  const std::size_t len = 1 + rng.below(4);
  while (t.path.size() < len) {
    const bgp::Asn asn = 1 + static_cast<bgp::Asn>(rng.below(30));
    if (std::find(t.path.begin(), t.path.end(), asn) == t.path.end()) t.path.push_back(asn);
  }
  for (const auto asn : t.path) {
    if (rng.chance(0.4)) {
      t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(asn),
                                                     static_cast<std::uint16_t>(rng.below(2))));
    }
  }
  bgp::normalize(t.comms);
  return t;
}

void shuffle(std::vector<StoredTuple>& tuples, topology::Rng& rng) {
  for (std::size_t i = tuples.size(); i > 1; --i) std::swap(tuples[i - 1], tuples[rng.below(i)]);
}

std::vector<StoredTuple> by_key(std::vector<StoredTuple> tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [](const StoredTuple& a, const StoredTuple& b) { return a.key < b.key; });
  return tuples;
}

class ShardVsReference
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(ShardVsReference, EveryStepMatchesTheFullWalk) {
  const auto [seed, window] = GetParam();
  topology::Rng rng(seed * 104729 + window);
  constexpr std::uint64_t kFirstKey = 3;
  constexpr std::uint64_t kStride = 8;
  TupleShard shard(kFirstKey, kStride);
  reference::ReferenceShard model(kFirstKey, kStride);

  std::vector<core::PathCommTuple> offered;  // every tuple offered so far
  Epoch epoch = 0;

  const auto restore = [&] {
    std::vector<StoredTuple> exported;
    shard.export_tuples(exported);
    if (rng.chance(0.5)) shuffle(exported, rng);
    shard.restore_tuples(std::move(exported), shard.next_key());
    model.drop_journal();
  };

  for (int step = 0; step < 80; ++step) {
    SCOPED_TRACE("step " + std::to_string(step) + ", epoch " + std::to_string(epoch));
    if (rng.chance(0.1)) restore();

    const std::size_t batches = 1 + rng.below(3);
    for (std::size_t b = 0; b < batches; ++b) {
      std::vector<core::PathCommTuple> batch;
      const std::size_t size = rng.below(24);
      for (std::size_t i = 0; i < size; ++i) {
        const auto draw = rng.below(10);
        if (draw < 4 || offered.empty()) {
          batch.push_back(random_tuple(rng));  // usually new
        } else if (draw < 8) {
          batch.push_back(offered[rng.below(offered.size())]);  // refresh or re-accept
        } else if (!batch.empty()) {
          batch.push_back(batch[rng.below(batch.size())]);  // same-epoch duplicate
        }
      }
      std::vector<PreparedTuple> prepared;
      IngestStats expected;
      for (const auto& t : batch) {
        offered.push_back(t);
        switch (model.ingest(t, epoch)) {
          case IngestOutcome::kAccepted: ++expected.accepted; break;
          case IngestOutcome::kRefreshed: ++expected.refreshed; break;
          case IngestOutcome::kDuplicate: ++expected.duplicates; break;
          case IngestOutcome::kRejected: ++expected.rejected; break;
        }
        prepared.push_back({t, core::TupleView::prepare(t)->upper_mask});
      }
      IngestStats got;
      shard.ingest_batch(std::move(prepared), epoch, got);
      ASSERT_EQ(got, expected);
    }
    if (offered.size() > 400) offered.erase(offered.begin(), offered.begin() + 200);

    if (rng.chance(0.1)) restore();

    epoch += rng.below(4);
    if (epoch >= window) {
      const Epoch min_epoch = epoch - window + 1;
      ASSERT_EQ(shard.evict_older_than(min_epoch), model.evict_older_than(min_epoch));
    }

    std::vector<StoredTuple> survivors;
    shard.export_tuples(survivors);
    ASSERT_TRUE(std::is_sorted(survivors.begin(), survivors.end(),
                               [](const StoredTuple& a, const StoredTuple& b) {
                                 return a.last_seen < b.last_seen;
                               }));
    const auto got = by_key(std::move(survivors));
    const auto want = by_key(model.live());
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(shard.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].key, want[i].key);
      ASSERT_EQ(got[i].last_seen, want[i].last_seen);
      ASSERT_EQ(got[i].tuple, want[i].tuple);
    }
    ASSERT_EQ(shard.next_key(), model.next_key());

    for (bgp::Asn peer = 1; peer <= kPeers; ++peer) {
      ASSERT_EQ(shard.live_counters(peer), model.live_counters(peer)) << "peer " << peer;
    }

    std::vector<core::IndexDelta> deltas;
    ASSERT_TRUE(shard.drain_deltas(deltas));
    const auto drained = reference::split(std::move(deltas));
    const auto expected = model.drain();
    ASSERT_EQ(drained.removes, expected.removes);
    ASSERT_EQ(drained.adds.size(), expected.adds.size());
    for (std::size_t i = 0; i < drained.adds.size(); ++i) {
      ASSERT_EQ(drained.adds[i].key, expected.adds[i].key);
      ASSERT_EQ(drained.adds[i].upper_mask, expected.adds[i].upper_mask);
      ASSERT_EQ(drained.adds[i].path, expected.adds[i].path);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, ShardVsReference,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 21),
                       ::testing::Values<std::uint64_t>(1, 2, 5, 48)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bgpcu::stream
