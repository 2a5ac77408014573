// Service facade unit tests: typed queries, the filtered subscription feed,
// the event-log ring buffer, and replay for late subscribers.
#include "api/service.h"

#include <gtest/gtest.h>

#include "obs/wellknown.h"
#include "stream/delta.h"

namespace bgpcu::api {
namespace {

/// One observation: `peer` -> 20, tagging its own community iff `tags`.
core::PathCommTuple tuple(bgp::Asn peer, bgp::Asn origin, bool tags) {
  core::PathCommTuple t;
  t.path = {peer, origin};
  if (tags) {
    t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(peer), 1));
  }
  return t;
}

TEST(ServiceQuery, StatsReflectEngineState) {
  Service service({.stream = {.shards = 4, .window_epochs = 2}});
  auto response = service.query({.kind = QueryKind::kStats});
  ASSERT_TRUE(response.stats.has_value());
  EXPECT_EQ(response.stats->epoch, 0u);
  EXPECT_EQ(response.stats->live_tuples, 0u);
  EXPECT_EQ(response.stats->shards, 4u);
  EXPECT_EQ(response.stats->window_epochs, 2u);
  EXPECT_EQ(response.stats->subscriptions, 0u);

  (void)service.ingest({tuple(10, 20, true), tuple(11, 20, false)});
  (void)service.advance_epoch();
  (void)service.subscribe({}, [](const EpochDelta&) {});
  response = service.query({.kind = QueryKind::kStats});
  EXPECT_EQ(response.stats->epoch, 1u);
  EXPECT_EQ(response.stats->live_tuples, 2u);
  EXPECT_EQ(response.stats->subscriptions, 1u);
}

/// kStats's snapshot-path fields, checked against the obs registry read
/// right after the query that produced them.
ServiceStats expect_registry_view(const Service& service) {
  const auto stats = *service.query({.kind = QueryKind::kStats}).stats;
  const auto& m = obs::metrics();
  EXPECT_EQ(stats.snapshot_sweeps, m.snapshot_sweeps.value());
  EXPECT_EQ(stats.snapshot_cache_hits, m.snapshot_cache_hits.value());
  EXPECT_EQ(stats.index_deltas_applied, m.index_deltas_applied.value());
  EXPECT_EQ(stats.index_compactions, m.index_compactions.value());
  EXPECT_EQ(stats.index_rebuilds, m.index_rebuilds.value());
  EXPECT_EQ(stats.locked_ns_last,
            static_cast<std::uint64_t>(m.snapshot_locked_last_ns.value()));
  EXPECT_EQ(stats.locked_ns_total, m.snapshot_locked_ns.sum());
  return stats;
}

TEST(ServiceQuery, StatsSnapshotFieldsAreARegistryView) {
  // Shrunk index thresholds make the evicting epoch compact its groups and
  // rebuild the index. Alone in its process, the script leaves the seven
  // fields at 2 sweeps, 3 hits, 24 deltas, 4 compactions, 1 rebuild and two
  // distinct lock times, so a field read from the wrong instrument shows.
  ServiceConfig config;
  config.stream.shards = 2;
  config.stream.window_epochs = 1;
  config.stream.index = {.compact_min_dead_rows = 2, .rebuild_min_dead_ids = 1};
  Service service(config);
  const auto before = expect_registry_view(service);

  core::Dataset batch;
  for (bgp::Asn peer = 10; peer < 16; ++peer) {
    batch.push_back(tuple(peer, 20, peer % 2 == 0));
    batch.push_back({.path = {peer, 30, 40}, .comms = {}});
  }
  const auto accepted = service.ingest(batch).accepted;
  ASSERT_EQ(accepted, batch.size());

  (void)service.query({.kind = QueryKind::kSnapshot});  // cold: sweep 1
  const auto first = expect_registry_view(service);
  for (const auto kind : {QueryKind::kClassOf, QueryKind::kSnapshot, QueryKind::kClassOf}) {
    (void)service.query({.kind = kind, .asn = 10});  // unchanged engine: cache hit
    (void)expect_registry_view(service);
  }
  (void)service.advance_epoch();  // window 1: evicts every tuple
  (void)service.query({.kind = QueryKind::kSnapshot});  // cold: sweep 2
  const auto after = expect_registry_view(service);

  EXPECT_EQ(after.snapshot_sweeps - before.snapshot_sweeps, 2u);
  EXPECT_EQ(after.snapshot_cache_hits - before.snapshot_cache_hits, 3u);
  EXPECT_EQ(after.index_deltas_applied - before.index_deltas_applied, 2 * accepted)
      << "every add, then every eviction";
  EXPECT_GT(after.index_compactions, before.index_compactions);
  EXPECT_GT(after.index_rebuilds, before.index_rebuilds);
  EXPECT_EQ(after.locked_ns_total - before.locked_ns_total,
            first.locked_ns_last + after.locked_ns_last)
      << "two cold snapshots held the lock";
}

TEST(ServiceQuery, ClassOfMatchesSnapshot) {
  Service service;
  (void)service.ingest({tuple(10, 20, true), tuple(11, 20, false)});

  const auto snapshot = service.query({.kind = QueryKind::kSnapshot});
  ASSERT_TRUE(snapshot.snapshot != nullptr);
  const auto one = service.query({.kind = QueryKind::kClassOf, .asn = 10});
  ASSERT_TRUE(one.asn_class.has_value());
  EXPECT_EQ(one.asn_class->asn, 10u);
  EXPECT_EQ(one.asn_class->usage, snapshot.snapshot->usage(10));
  EXPECT_EQ(one.asn_class->counters, snapshot.snapshot->counters(10));

  // An AS the engine never saw: zero counters, none/none class.
  const auto unseen = service.query({.kind = QueryKind::kClassOf, .asn = 999});
  EXPECT_EQ(unseen.asn_class->usage.code(), "nn");
  EXPECT_EQ(unseen.asn_class->counters, core::UsageCounters{});
}

TEST(ServiceQuery, LiveCountersSeePeerColumnEvidenceWithoutSweep) {
  Service service;
  (void)service.ingest({tuple(10, 20, true), tuple(10, 21, true), tuple(11, 20, false)});

  const auto tagging = service.query({.kind = QueryKind::kLiveCounters, .asn = 10});
  ASSERT_TRUE(tagging.asn_class.has_value());
  EXPECT_EQ(tagging.asn_class->counters.t, 2u);
  EXPECT_EQ(tagging.asn_class->counters.s, 0u);
  EXPECT_EQ(tagging.asn_class->usage.tagging, core::TaggingClass::kTagger);

  const auto silent = service.query({.kind = QueryKind::kLiveCounters, .asn = 11});
  EXPECT_EQ(silent.asn_class->counters.s, 1u);
  EXPECT_EQ(silent.asn_class->usage.tagging, core::TaggingClass::kSilent);
}

/// Flips AS 10 from tagger to silent across two window-1 epochs.
class ServiceFeedTest : public ::testing::Test {
 protected:
  ServiceFeedTest() : service_({.stream = {.window_epochs = 1}}) {}

  void flip_epochs() {
    (void)service_.ingest({tuple(10, 20, true)});  // AS 10: tn
    (void)service_.publish();
    (void)service_.advance_epoch();
    (void)service_.ingest({tuple(10, 20, false)});  // AS 10: sn (old tuple aged out)
    (void)service_.publish();
  }

  Service service_;
};

TEST_F(ServiceFeedTest, SubscriberReceivesEpochBatchedChanges) {
  std::vector<EpochDelta> received;
  (void)service_.subscribe({}, [&](const EpochDelta& d) { received.push_back(d); });
  flip_epochs();

  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].epoch, 0u);
  ASSERT_EQ(received[0].changes.size(), 1u);
  EXPECT_EQ(received[0].changes[0].before.code(), "nn");
  EXPECT_EQ(received[0].changes[0].after.code(), "tn");
  EXPECT_EQ(received[1].epoch, 1u);
  ASSERT_EQ(received[1].changes.size(), 1u);
  EXPECT_EQ(received[1].changes[0].before.code(), "tn");
  EXPECT_EQ(received[1].changes[0].after.code(), "sn");
}

TEST_F(ServiceFeedTest, TransitionFilterSelectsMatchingChangesOnly) {
  std::vector<EpochDelta> received;
  (void)service_.subscribe(SubscriptionFilter::transition("tn->sn"),
                           [&](const EpochDelta& d) { received.push_back(d); });
  flip_epochs();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].epoch, 1u);
  ASSERT_EQ(received[0].changes.size(), 1u);
  EXPECT_EQ(received[0].changes[0].asn, 10u);
}

TEST_F(ServiceFeedTest, WatchlistFilterIgnoresOtherAses) {
  std::vector<EpochDelta> hits;
  std::vector<EpochDelta> misses;
  SubscriptionFilter watching;
  watching.watch = {10};
  SubscriptionFilter elsewhere;
  elsewhere.watch = {777};
  (void)service_.subscribe(watching, [&](const EpochDelta& d) { hits.push_back(d); });
  (void)service_.subscribe(elsewhere, [&](const EpochDelta& d) { misses.push_back(d); });
  flip_epochs();

  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(misses.empty());  // never called with an empty batch
}

TEST_F(ServiceFeedTest, PublishWithoutChangeIsEmptyAndUnlogged) {
  flip_epochs();
  const auto before = service_.replay(0).size();
  const auto delta = service_.publish();  // nothing changed since last publish
  EXPECT_TRUE(delta.changes.empty());
  EXPECT_EQ(service_.replay(0).size(), before);
}

TEST_F(ServiceFeedTest, UnsubscribeStopsDelivery) {
  std::vector<EpochDelta> received;
  const auto id = service_.subscribe({}, [&](const EpochDelta& d) { received.push_back(d); });
  (void)service_.ingest({tuple(10, 20, true)});
  (void)service_.publish();
  ASSERT_EQ(received.size(), 1u);

  EXPECT_TRUE(service_.unsubscribe(id));
  EXPECT_FALSE(service_.unsubscribe(id));
  (void)service_.advance_epoch();
  (void)service_.ingest({tuple(10, 20, false)});
  (void)service_.publish();
  EXPECT_EQ(received.size(), 1u);
}

TEST_F(ServiceFeedTest, CallbackMayUnsubscribeReentrantly) {
  SubscriptionId id = 0;
  int calls = 0;
  id = service_.subscribe({}, [&](const EpochDelta&) {
    ++calls;
    EXPECT_TRUE(service_.unsubscribe(id));
  });
  flip_epochs();
  EXPECT_EQ(calls, 1);
}

TEST_F(ServiceFeedTest, LateSubscriberReplaysFromEventLog) {
  flip_epochs();

  std::vector<EpochDelta> replayed;
  (void)service_.subscribe({}, [&](const EpochDelta& d) { replayed.push_back(d); },
                           /*replay_from=*/0);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].epoch, 0u);
  EXPECT_EQ(replayed[1].epoch, 1u);

  std::vector<EpochDelta> partial;
  (void)service_.subscribe(SubscriptionFilter{}, [&](const EpochDelta& d) { partial.push_back(d); },
                           /*replay_from=*/1);
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial[0].epoch, 1u);

  EXPECT_EQ(service_.replay_horizon(), std::optional<stream::Epoch>(0));
}

TEST(EventLog, RingBufferEvictsOldestAndFiltersByEpoch) {
  EventLog log(3);
  EXPECT_EQ(log.capacity(), 3u);
  EXPECT_EQ(log.oldest_epoch(), std::nullopt);
  for (stream::Epoch e = 1; e <= 5; ++e) {
    log.push({e, {stream::ClassChange{static_cast<bgp::Asn>(e), {}, {}}}});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.oldest_epoch(), std::optional<stream::Epoch>(3));
  const auto tail = log.since(4);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].epoch, 4u);
  EXPECT_EQ(tail[1].epoch, 5u);
  EXPECT_TRUE(log.since(6).empty());
}

TEST(EventLog, ServiceHonorsConfiguredCapacity) {
  Service service({.stream = {.window_epochs = 1}, .event_log_capacity = 1});
  (void)service.ingest({tuple(10, 20, true)});
  (void)service.publish();
  (void)service.advance_epoch();
  (void)service.ingest({tuple(10, 20, false)});
  (void)service.publish();
  const auto retained = service.replay(0);
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].epoch, 1u);
  EXPECT_EQ(service.replay_horizon(), std::optional<stream::Epoch>(1));
}

// --- Ring-buffer wraparound edges: the log has evicted batches, and
// --- subscribers arrive exactly at, before, or past the retention boundary.

/// Publishes epochs 0..n-1, each flipping AS 10's class so every epoch
/// produces a logged batch (window 1: tags alternate -> tn/sn alternate).
void publish_epochs(Service& service, stream::Epoch n) {
  for (stream::Epoch e = 0; e < n; ++e) {
    if (e > 0) (void)service.advance_epoch();
    (void)service.ingest({tuple(10, 20, e % 2 == 0)});
    (void)service.publish();
  }
}

TEST(EventLogWraparound, SubscriberJoiningExactlyAtEvictionBoundaryGetsFullTail) {
  Service service({.stream = {.window_epochs = 1}, .event_log_capacity = 3});
  publish_epochs(service, 5);  // epochs 0,1 evicted; 2,3,4 retained

  ASSERT_EQ(service.replay_horizon(), std::optional<stream::Epoch>(2));
  std::vector<EpochDelta> replayed;
  (void)service.subscribe({}, [&](const EpochDelta& d) { replayed.push_back(d); },
                          /*replay_from=*/*service.replay_horizon());
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed.front().epoch, 2u);
  EXPECT_EQ(replayed.back().epoch, 4u);
}

TEST(EventLogWraparound, ReplayFromBeforeHorizonIsLossyAndDetectable) {
  Service service({.stream = {.window_epochs = 1}, .event_log_capacity = 2});
  publish_epochs(service, 5);  // only epochs 3,4 retained

  std::vector<EpochDelta> replayed;
  (void)service.subscribe({}, [&](const EpochDelta& d) { replayed.push_back(d); },
                          /*replay_from=*/0);
  // The evicted epochs are silently gone from the delivery...
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].epoch, 3u);
  // ...but the caller can detect the gap: the horizon is past its request.
  EXPECT_GT(*service.replay_horizon(), 0u);
}

TEST(EventLogWraparound, ReplayFromFutureEpochDeliversNothingButSubscribes) {
  Service service({.stream = {.window_epochs = 1}, .event_log_capacity = 4});
  publish_epochs(service, 3);

  std::vector<EpochDelta> received;
  (void)service.subscribe({}, [&](const EpochDelta& d) { received.push_back(d); },
                          /*replay_from=*/100);  // beyond every retained epoch
  EXPECT_TRUE(received.empty());

  // The subscription is live: the next published epoch arrives normally.
  (void)service.advance_epoch();
  (void)service.ingest({tuple(10, 20, false)});
  (void)service.publish();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].epoch, 3u);
}

TEST(EventLogWraparound, CapacityOneRingHoldsExactlyTheNewestBatch) {
  EventLog log(1);
  for (stream::Epoch e = 0; e < 10; ++e) {
    log.push({e, {stream::ClassChange{static_cast<bgp::Asn>(e + 1), {}, {}}}});
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.oldest_epoch(), std::optional<stream::Epoch>(e));
    // since() straddling the boundary: exactly-at keeps it, one-past drops it.
    EXPECT_EQ(log.since(e).size(), 1u);
    EXPECT_TRUE(log.since(e + 1).empty());
  }
}

TEST(EventLogWraparound, UnloggedEmptyPublishesDoNotOccupyRingSlots) {
  Service service({.stream = {.window_epochs = 1}, .event_log_capacity = 2});
  publish_epochs(service, 2);
  // Re-publishing without changes must not push empty batches that would
  // evict real history from a full ring.
  (void)service.publish();
  (void)service.publish();
  const auto retained = service.replay(0);
  ASSERT_EQ(retained.size(), 2u);
  EXPECT_EQ(retained[0].epoch, 0u);
  EXPECT_EQ(retained[1].epoch, 1u);
  EXPECT_FALSE(retained[0].changes.empty());
}

TEST(SubscriptionFilterSpec, TransitionParsingAndMatching) {
  const auto filter = SubscriptionFilter::transition("*->tc");
  EXPECT_EQ(filter.from, "*");
  EXPECT_EQ(filter.to, "tc");
  stream::ClassChange change;
  change.asn = 1;
  change.before = {core::TaggingClass::kTagger, core::ForwardingClass::kForward};
  change.after = {core::TaggingClass::kTagger, core::ForwardingClass::kCleaner};
  EXPECT_TRUE(filter.matches(change));
  change.after = {core::TaggingClass::kTagger, core::ForwardingClass::kForward};
  EXPECT_FALSE(filter.matches(change));

  EXPECT_THROW((void)SubscriptionFilter::transition("tf"), std::invalid_argument);
  EXPECT_THROW((void)SubscriptionFilter::transition("xx->tc"), std::invalid_argument);
  EXPECT_THROW((void)SubscriptionFilter::transition("tf->"), std::invalid_argument);
}

}  // namespace
}  // namespace bgpcu::api
