// Chaos conformance suite (ctest label: chaos): the protocol stack under
// deterministic fault-injection schedules. Cuts swept across every byte
// offset of the handshake and query exchange, stalled writers and slow
// readers, and the tentpole acceptance property — a ResilientClient driven
// through dozens of injected disconnects (including horizon-miss snapshot
// re-syncs) must deliver the exact epoch -> class-delta sequence an
// uninterrupted subscriber would see, reproducibly across fault-plan seeds.
//
// Excluded from the 'fast' test preset; run with ctest -L chaos or 'full'.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "net/client.h"
#include "net/fault.h"
#include "net/framer.h"
#include "net/loopback.h"
#include "net/resilient.h"
#include "net/server.h"

namespace bgpcu::net {
namespace {

using namespace std::chrono_literals;

core::PathCommTuple tuple(bgp::Asn peer, bgp::Asn origin, bool tags) {
  core::PathCommTuple t;
  t.path = {peer, origin};
  if (tags) {
    t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(peer), 1));
  }
  return t;
}

bool eventually(const std::function<bool()>& condition) {
  for (int i = 0; i < 800; ++i) {
    if (condition()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return condition();
}

/// Folds deltas the way a subscriber materializes state: none/none removes.
void fold(std::map<bgp::Asn, core::UsageClass>& state, const api::EpochDelta& delta) {
  for (const auto& change : delta.changes) {
    if (change.after == core::UsageClass{}) {
      state.erase(change.asn);
    } else {
      state[change.asn] = change.after;
    }
  }
}

/// Service + Server whose accepted connections run under `planner`'s fault
/// plans. Clients dial the inner loopback listener directly (their end of
/// the pipe is healthy; the server's end misbehaves).
struct ChaosHarness {
  ChaosHarness(api::ServiceConfig service_config, FaultyListener::Planner planner,
               ServerConfig server_config = {})
      : service(std::move(service_config)),
        inner(std::make_shared<LoopbackListener>()),
        listener(std::make_shared<FaultyListener>(inner, std::move(planner))),
        server(service, listener, std::move(server_config)) {
    server.start();
  }

  ~ChaosHarness() { server.stop(); }

  /// Epoch e flips AS (100 + e) to tagger; window 1 drops the previous one.
  api::EpochDelta publish_next() {
    if (published > 0) (void)service.advance_epoch();
    (void)service.ingest({tuple(100 + static_cast<bgp::Asn>(published), 20, true)});
    ++published;
    return service.publish();
  }

  [[nodiscard]] ResilientClient resilient_client() {
    ResilientConfig config;
    config.sleep_fn = [](std::chrono::milliseconds) {};  // no wall-clock waits
    return ResilientClient([this] { return inner->connect(); }, std::move(config));
  }

  api::Service service;
  std::shared_ptr<LoopbackListener> inner;
  std::shared_ptr<FaultyListener> listener;
  Server server;
  stream::Epoch published = 0;
};

/// Drives `client` until `want` kDelta events arrived (skipping
/// kReconnected/kGap bookkeeping events into the out-params), with a hard
/// iteration guard so a regression can never wedge the suite.
std::vector<api::EpochDelta> consume_deltas(ResilientClient& client, std::size_t want,
                                            std::uint64_t* reconnects = nullptr,
                                            std::vector<ResilientClient::Event>* gaps = nullptr) {
  std::vector<api::EpochDelta> got;
  for (int guard = 0; got.size() < want && guard < 200000; ++guard) {
    auto event = client.next_event();
    if (!event.has_value()) break;
    switch (event->kind) {
      case ResilientClient::Event::Kind::kReconnected:
        if (reconnects != nullptr) ++*reconnects;
        break;
      case ResilientClient::Event::Kind::kGap:
        if (gaps != nullptr) gaps->push_back(*event);
        break;
      case ResilientClient::Event::Kind::kDelta:
        got.push_back(std::move(event->delta));
        break;
    }
  }
  return got;
}

// ------------------------------------------------- boundary cut sweep --

TEST(Chaos, CutsAtEveryOffsetAcrossTheExchangeLeakNoServerState) {
  // 60 connections, each severed at a different byte offset (both
  // directions, 0..87 in steps of 3) somewhere inside the handshake, the
  // subscribe, or the query exchange — frame boundaries and mid-frame alike.
  // None may wedge a handler thread, leak a connection slot, or strand a
  // subscription.
  constexpr std::size_t kSweep = 60;
  ChaosHarness harness({.stream = {.window_epochs = 1}}, [](std::size_t i) -> FaultPlan {
    if (i >= kSweep) return {};
    const std::uint64_t offset = (i / 2) * 3;
    return i % 2 == 0 ? FaultPlan::cut_write_at(offset) : FaultPlan::cut_read_at(offset);
  });
  (void)harness.publish_next();

  for (std::size_t i = 0; i < kSweep; ++i) {
    auto conn = harness.inner->connect();
    std::vector<std::uint8_t> burst = api::encode_hello({api::kProtocolVersion, ""});
    const auto subscribe = api::encode_subscribe({1, {}, 0});
    const auto request = api::encode_request({2, {.kind = api::QueryKind::kStats}});
    burst.insert(burst.end(), subscribe.begin(), subscribe.end());
    burst.insert(burst.end(), request.begin(), request.end());
    (void)conn->write_all(burst);  // may tear mid-frame; that is the point
    conn->shutdown_write();
    // Drain until EOF: either the cut fires (link severed) or the server
    // answers everything and closes after our half-close. Both must
    // terminate — a hang here is the deadlock this sweep exists to catch.
    std::vector<std::uint8_t> sink(4096);
    while (conn->read_some(sink) != 0) {
    }
  }

  EXPECT_TRUE(eventually([&] { return harness.server.connection_count() == 0; }))
      << "a cut connection leaked its server slot";
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 0; }))
      << "a cut connection stranded its subscription";

  // The 61st connection is healthy, and the server is fully functional.
  Client client(harness.inner->connect());
  EXPECT_EQ(client.welcome().protocol, api::kProtocolVersion);
  EXPECT_TRUE(client.query({.kind = api::QueryKind::kStats}).stats.has_value());
}

// --------------------------------------------- stalls and slow readers --

TEST(Chaos, StalledServerWriterDeliversEveryEventWithoutBlockingPublish) {
  // The first accepted connection's writes stall 150 ms crossing byte 40 —
  // right inside the subscription stream. publish() must stay prompt (it
  // only enqueues) and every event must still arrive, in order.
  ChaosHarness harness({.stream = {.window_epochs = 1}}, [](std::size_t i) {
    return i == 0 ? FaultPlan::stall_write_at(40, 150ms) : FaultPlan{};
  });
  Client client(harness.inner->connect());
  (void)client.subscribe({});
  ASSERT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));

  const auto start = std::chrono::steady_clock::now();
  std::vector<api::EpochDelta> reference;
  for (int e = 0; e < 6; ++e) reference.push_back(harness.publish_next());
  const auto publish_time = std::chrono::steady_clock::now() - start;
  EXPECT_LT(publish_time, 5s) << "publish must never wait on a stalled writer";

  for (stream::Epoch e = 0; e < 6; ++e) {
    const auto event = client.next_event();
    ASSERT_TRUE(event.has_value()) << "event " << e << " lost behind the stall";
    EXPECT_EQ(event->delta.epoch, e);
    EXPECT_EQ(event->delta.changes, reference[e].changes);
  }
}

TEST(Chaos, SlowReaderStillReassemblesEveryFrameIntact) {
  // The client's own reads stall once and its writes are chopped to 3-byte
  // transport chunks: torn frames at every boundary, reassembled by the
  // framer on both sides without corruption.
  ChaosHarness harness({.stream = {.window_epochs = 1}},
                       [](std::size_t) { return FaultPlan{}; });
  FaultPlan plan = FaultPlan::short_writes(3);
  plan.faults.push_back(
      {Fault::Kind::kStall, Fault::Dir::kRead, 30, 100ms, 0});
  Client client(wrap_with_faults(harness.inner->connect(), std::move(plan)));
  (void)client.subscribe({});
  ASSERT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));

  std::vector<api::EpochDelta> reference;
  for (int e = 0; e < 4; ++e) reference.push_back(harness.publish_next());
  for (stream::Epoch e = 0; e < 4; ++e) {
    const auto event = client.next_event();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->delta.epoch, e);
    EXPECT_EQ(event->delta.changes, reference[e].changes);
  }
  const auto stats = client.query({.kind = api::QueryKind::kStats});
  ASSERT_TRUE(stats.stats.has_value());
}

// ------------------------------------- resilient resume: the tentpole --

TEST(Chaos, TwentyInjectedDisconnectsYieldTheExactReplaySequence) {
  // The first 20 server-side connections die at growing (but always
  // pre-ack) byte offsets, so every one of them is a real observed
  // disconnect; connection 21+ is healthy. The resulting delta stream must
  // be bit-identical to what an uninterrupted replay-from-0 subscriber
  // gets, with zero gap re-syncs (retention covers everything).
  constexpr std::size_t kFaulty = 20;
  constexpr stream::Epoch kEpochs = 30;
  ChaosHarness harness({.stream = {.window_epochs = 1}, .event_log_capacity = 64},
                       [](std::size_t i) {
                         if (i >= kFaulty) return FaultPlan{};
                         return FaultPlan::cut_write_at(8 + 2 * static_cast<std::uint64_t>(i));
                       });
  std::vector<api::EpochDelta> reference;
  for (stream::Epoch e = 0; e < kEpochs; ++e) reference.push_back(harness.publish_next());

  auto client = harness.resilient_client();
  client.subscribe({}, /*replay_from=*/0);
  std::uint64_t reconnects = 0;
  std::vector<ResilientClient::Event> gaps;
  const auto got = consume_deltas(client, kEpochs, &reconnects, &gaps);

  ASSERT_EQ(got.size(), kEpochs);
  for (stream::Epoch e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(got[e].epoch, e);
    EXPECT_EQ(got[e].changes, reference[e].changes) << "epoch " << e;
  }
  EXPECT_TRUE(gaps.empty()) << "retention covered the whole stream";
  EXPECT_EQ(client.stats().gap_resyncs, 0u);
  EXPECT_GE(client.stats().connect_attempts, kFaulty)
      << "every faulty accept must have been burned through";

  std::map<bgp::Asn, core::UsageClass> expected;
  for (const auto& delta : reference) fold(expected, delta);
  EXPECT_EQ(client.class_state(), expected);
}

TEST(Chaos, KillingTheLinkEveryFewEpochsResumesWithoutLossOrDuplicates) {
  // The "soak" shape from the issue: a live subscriber whose link is killed
  // every K epochs. Resume-from-last-seen must hand the consumer the exact
  // continuation — no duplicate epochs, no holes — across 7 kills.
  constexpr int kRounds = 8;
  constexpr int kPerRound = 3;
  api::ServiceConfig service_config{.stream = {.window_epochs = 1}};
  service_config.event_log_capacity = 64;
  ChaosHarness harness(std::move(service_config), [](std::size_t) { return FaultPlan{}; });

  Connection* live = nullptr;
  ResilientConfig config;
  config.sleep_fn = [](std::chrono::milliseconds) {};
  ResilientClient client(
      [&] {
        auto conn = harness.inner->connect();
        live = conn.get();
        return conn;
      },
      std::move(config));
  client.subscribe({});
  ASSERT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));

  std::vector<api::EpochDelta> reference;
  std::uint64_t reconnects = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPerRound; ++i) reference.push_back(harness.publish_next());
    const auto got = consume_deltas(client, kPerRound, &reconnects);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kPerRound)) << "round " << round;
    for (const auto& delta : got) {
      const auto e = delta.epoch;
      EXPECT_EQ(delta.changes, reference.at(e).changes) << "epoch " << e;
    }
    if (round + 1 < kRounds) live->close();  // kill the link between rounds
  }

  EXPECT_EQ(client.stats().reconnects, static_cast<std::uint64_t>(kRounds - 1));
  EXPECT_EQ(reconnects, static_cast<std::uint64_t>(kRounds - 1));
  EXPECT_EQ(client.stats().gap_resyncs, 0u);
  EXPECT_EQ(client.last_seen_epoch(), static_cast<stream::Epoch>(kRounds * kPerRound - 1));
  std::map<bgp::Asn, core::UsageClass> expected;
  for (const auto& delta : reference) fold(expected, delta);
  EXPECT_EQ(client.class_state(), expected);
}

TEST(Chaos, RepeatedHorizonMissesResyncToTheExactMaterializedState) {
  // Tiny retention (2 batches) against 6 epochs published behind every
  // kill: each resume finds its epoch fallen off the log, re-syncs from a
  // snapshot, and reports the gap honestly. The materialized view must end
  // up exactly where an uninterrupted subscriber's fold would.
  constexpr int kRounds = 8;
  constexpr int kPerRound = 6;
  api::ServiceConfig service_config{.stream = {.window_epochs = 1}};
  service_config.event_log_capacity = 2;
  ChaosHarness harness(std::move(service_config), [](std::size_t) { return FaultPlan{}; });

  Connection* live = nullptr;
  ResilientConfig config;
  config.sleep_fn = [](std::chrono::milliseconds) {};
  ResilientClient client(
      [&] {
        auto conn = harness.inner->connect();
        live = conn.get();
        return conn;
      },
      std::move(config));
  client.subscribe({});
  ASSERT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));

  std::vector<api::EpochDelta> reference;
  // Round 0 is consumed live; every later round is published entirely while
  // the link is down, so its resume *must* gap.
  for (int i = 0; i < kPerRound; ++i) reference.push_back(harness.publish_next());
  std::uint64_t reconnects = 0;
  std::vector<ResilientClient::Event> gaps;
  ASSERT_EQ(consume_deltas(client, kPerRound, &reconnects, &gaps).size(),
            static_cast<std::size_t>(kPerRound));
  ASSERT_TRUE(gaps.empty());

  stream::Epoch prev_seen = kPerRound - 1;
  for (int round = 1; round < kRounds; ++round) {
    live->close();
    for (int i = 0; i < kPerRound; ++i) reference.push_back(harness.publish_next());
    // The whole round is covered by one gap event; no deltas survive the
    // lossy replayed tail.
    gaps.clear();
    while (gaps.empty()) {
      auto event = client.next_event();
      ASSERT_TRUE(event.has_value());
      ASSERT_NE(event->kind, ResilientClient::Event::Kind::kDelta)
          << "the lossy replayed tail must not leak through as deltas";
      if (event->kind == ResilientClient::Event::Kind::kGap) gaps.push_back(*event);
    }
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].gap_from, prev_seen + 1) << "round " << round;
    EXPECT_GT(gaps[0].gap_to, prev_seen) << "gaps must advance monotonically";
    prev_seen = gaps[0].gap_to;
  }

  EXPECT_EQ(client.stats().gap_resyncs, static_cast<std::uint64_t>(kRounds - 1));
  EXPECT_EQ(client.last_seen_epoch(),
            static_cast<stream::Epoch>(kRounds * kPerRound - 1));
  std::map<bgp::Asn, core::UsageClass> expected;
  for (const auto& delta : reference) fold(expected, delta);
  EXPECT_EQ(client.class_state(), expected);
}

TEST(Chaos, SeededRandomCutSchedulesAreBitIdenticalAcrossTheBoard) {
  // Property over fault-plan seeds: whatever schedule random_cut draws for
  // the first 12 connections (read or write direction, offsets 8..600,
  // sometimes stalled first), the delivered sequence equals the reference.
  // A failure names the seed, which replays the exact schedule.
  constexpr stream::Epoch kEpochs = 16;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ChaosHarness harness({.stream = {.window_epochs = 1}, .event_log_capacity = 64},
                         [seed](std::size_t i) {
                           if (i >= 12) return FaultPlan{};
                           return FaultPlan::random_cut(seed * 100 + i, 8, 600);
                         });
    std::vector<api::EpochDelta> reference;
    for (stream::Epoch e = 0; e < kEpochs; ++e) reference.push_back(harness.publish_next());

    auto client = harness.resilient_client();
    client.subscribe({}, /*replay_from=*/0);
    const auto got = consume_deltas(client, kEpochs);
    ASSERT_EQ(got.size(), kEpochs) << "seed " << seed;
    for (stream::Epoch e = 0; e < kEpochs; ++e) {
      ASSERT_EQ(got[e].epoch, e) << "seed " << seed;
      ASSERT_EQ(got[e].changes, reference[e].changes) << "seed " << seed << " epoch " << e;
    }
    std::map<bgp::Asn, core::UsageClass> expected;
    for (const auto& delta : reference) fold(expected, delta);
    EXPECT_EQ(client.class_state(), expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bgpcu::net
