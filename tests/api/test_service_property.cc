// The facade's correctness contracts, property-tested over randomized
// churn scenarios (same scenario space as tests/stream/test_stream_property):
//
//  1. The subscription feed delivers exactly the same ClassChange sequence
//     as stream::diff_classifications over successive published snapshots —
//     an unfiltered subscriber's accumulated batches equal the independently
//     recomputed diffs, and a filtered subscriber receives exactly the
//     filter-applied subset.
//  2. Every published snapshot survives the wire codec: decode(encode(s))
//     re-encodes to the same bytes and text-serializes byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "api/service.h"
#include "api/wire.h"
#include "core/database.h"
#include "stream/delta.h"
#include "topology/rng.h"

namespace bgpcu::api {
namespace {

/// Random dataset in the style of tests/stream/test_stream_property: small
/// recurring ASNs, random path lengths, communities keyed on path members.
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
    d.push_back(std::move(t));
  }
  return d;
}

std::string text_db(const core::InferenceResult& result) {
  std::stringstream out;
  core::write_database(out, result);
  return out.str();
}

class ServiceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServiceProperty, FeedEqualsDiffOfSuccessiveSnapshotsAndWireRoundTrips) {
  const auto seed = GetParam();
  topology::Rng rng(seed * 6151 + 3);

  const std::uint64_t window = rng.below(3);  // 0 = unbounded
  Service service({.stream = {.shards = 1 + rng.below(6), .window_epochs = window}});

  std::vector<EpochDelta> feed;       // unfiltered subscriber
  std::vector<EpochDelta> filtered;   // transition-filtered subscriber
  const auto filter = SubscriptionFilter::transition("*->tn");
  (void)service.subscribe({}, [&](const EpochDelta& d) { feed.push_back(d); });
  (void)service.subscribe(filter, [&](const EpochDelta& d) { filtered.push_back(d); });

  core::InferenceResult previous({}, service.config().stream.engine.thresholds, 0);
  std::vector<EpochDelta> oracle;          // diff_classifications per epoch
  std::vector<EpochDelta> oracle_filtered;

  const std::size_t epochs = 4 + rng.below(4);
  for (std::size_t e = 0; e < epochs; ++e) {
    if (e > 0) (void)service.advance_epoch();
    (void)service.ingest(random_dataset(rng, 30 + rng.below(50)));

    // Independent oracle: successive live cuts, diffed with the stream
    // primitive directly.
    const auto snapshot = *service.snapshot();
    auto changes = stream::diff_classifications(previous, snapshot);
    const auto published = service.publish();
    ASSERT_EQ(published.epoch, service.epoch());
    ASSERT_EQ(published.changes, changes) << "seed " << seed << " epoch " << e;
    // Queried == published: the query API now answers this cut at this epoch.
    const auto answer = service.query({.kind = QueryKind::kSnapshot});
    ASSERT_EQ(answer.epoch, published.epoch) << "seed " << seed;
    ASSERT_EQ(answer.snapshot->counter_map(), snapshot.counter_map()) << "seed " << seed;
    if (!changes.empty()) {
      oracle.push_back({published.epoch, changes});
      EpochDelta want{published.epoch, {}};
      for (const auto& c : changes) {
        if (filter.matches(c)) want.changes.push_back(c);
      }
      if (!want.changes.empty()) oracle_filtered.push_back(std::move(want));
    }
    previous = snapshot;

    // Wire round trip of this epoch's published snapshot.
    const auto frame = encode_snapshot(snapshot);
    const auto decoded = decode_snapshot(frame);
    ASSERT_EQ(decoded.counter_map(), snapshot.counter_map()) << "seed " << seed;
    ASSERT_EQ(encode_snapshot(decoded), frame) << "seed " << seed;
    ASSERT_EQ(text_db(decoded), text_db(snapshot)) << "seed " << seed;
  }

  EXPECT_EQ(feed, oracle) << "seed " << seed;
  EXPECT_EQ(filtered, oracle_filtered) << "seed " << seed;

  // The event log retains the same sequence (tail within capacity).
  const auto retained = service.replay(0);
  ASSERT_LE(retained.size(), oracle.size());
  EXPECT_TRUE(std::equal(retained.begin(), retained.end(),
                         oracle.end() - static_cast<std::ptrdiff_t>(retained.size())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceProperty, ::testing::Range<std::uint64_t>(1, 21),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
}  // namespace bgpcu::api
