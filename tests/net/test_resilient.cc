// net::ResilientClient unit suite: backoff determinism, reconnect with a
// bounded attempt budget, retry-across-disconnect queries, busy-shed
// deferral, permanent handshake refusals, resume-from-epoch after a dropped
// link, the horizon-miss snapshot re-sync, and client-side keepalive.
// Everything runs over the in-process loopback transport with injected
// sleep hooks — no ports, no wall-clock backoff waits.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "counter_baseline.h"
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

/// Folds deltas the way ResilientClient::apply_changes does: a none/none
/// "after" removes the AS from the view.
void fold(std::map<bgp::Asn, core::UsageClass>& state, const api::EpochDelta& delta) {
  for (const auto& change : delta.changes) {
    if (change.after == core::UsageClass{}) {
      state.erase(change.asn);
    } else {
      state[change.asn] = change.after;
    }
  }
}

std::vector<std::uint8_t> next_frame(Connection& conn, FrameBuffer& frames) {
  std::vector<std::uint8_t> chunk(4096);
  for (;;) {
    auto frame = frames.extract();
    if (!frame.empty()) return frame;
    const auto n = conn.read_some(chunk);
    if (n == 0) return {};
    frames.append(std::span(chunk.data(), n));
  }
}

/// Service + Server over a loopback listener, with an epoch-publishing
/// helper: epoch e flips AS (100 + e) to tagger (window 1, so the previous
/// epoch's AS falls back out on the next publish).
struct Harness {
  explicit Harness(api::ServiceConfig service_config = {.stream = {.window_epochs = 1}},
                   ServerConfig server_config = {})
      : service(std::move(service_config)),
        listener(std::make_shared<LoopbackListener>()),
        server(service, listener, std::move(server_config)) {
    server.start();
  }

  ~Harness() { server.stop(); }

  [[nodiscard]] ResilientClient client(ResilientConfig config = {}) {
    if (!config.sleep_fn) {
      config.sleep_fn = [](std::chrono::milliseconds) {};  // no real waits
    }
    return ResilientClient([this] { return listener->connect(); }, std::move(config));
  }

  api::EpochDelta publish_next() {
    if (published > 0) (void)service.advance_epoch();
    (void)service.ingest({tuple(100 + static_cast<bgp::Asn>(published), 20, true)});
    ++published;
    return service.publish();
  }

  api::Service service;
  std::shared_ptr<LoopbackListener> listener;
  Server server;
  stream::Epoch published = 0;
};

// ----------------------------------------------------------- backoff --

TEST(Backoff, IsDeterministicForAFixedSeedAndStaysInRange) {
  const BackoffPolicy policy;
  std::mt19937_64 a(7), b(7);
  std::uint64_t prev_a = 0, prev_b = 0;
  for (int i = 0; i < 200; ++i) {
    prev_a = decorrelated_backoff(prev_a, policy, a);
    prev_b = decorrelated_backoff(prev_b, policy, b);
    ASSERT_EQ(prev_a, prev_b) << "same seed, same schedule";
    EXPECT_GE(prev_a, policy.initial_ms);
    EXPECT_LE(prev_a, policy.cap_ms);
  }
}

TEST(Backoff, FirstDelayStartsNearInitialAndTheCapIsAHardCeiling) {
  const BackoffPolicy policy{.initial_ms = 100, .cap_ms = 700, .seed = 3};
  std::mt19937_64 rng(3);
  const auto first = decorrelated_backoff(0, policy, rng);
  EXPECT_GE(first, 100u);
  EXPECT_LE(first, 101u) << "with prev 0 the draw window is [initial, initial+1]";
  std::uint64_t prev = first;
  bool hit_cap = false;
  for (int i = 0; i < 100; ++i) {
    prev = decorrelated_backoff(prev, policy, rng);
    EXPECT_LE(prev, 700u);
    hit_cap = hit_cap || prev == 700u;
  }
  EXPECT_TRUE(hit_cap) << "exponential growth must reach (and stick to) the cap";
}

TEST(Backoff, DifferentSeedsDecorrelate) {
  const BackoffPolicy policy{.initial_ms = 100, .cap_ms = 10'000, .seed = 1};
  std::mt19937_64 a(1), b(2);
  std::uint64_t prev_a = 0, prev_b = 0;
  bool differs = false;
  for (int i = 0; i < 32 && !differs; ++i) {
    prev_a = decorrelated_backoff(prev_a, policy, a);
    prev_b = decorrelated_backoff(prev_b, policy, b);
    differs = prev_a != prev_b;
  }
  EXPECT_TRUE(differs) << "two clients must not thunder in lockstep";
}

// ----------------------------------------------------------- connect --

TEST(ResilientClient, RefusedDialsBackOffUntilTheListenerAnswers) {
  Harness harness;
  (void)harness.publish_next();
  int failures_left = 2;
  std::vector<std::chrono::milliseconds> sleeps;
  ResilientConfig config;
  config.max_connect_attempts = 10;
  config.sleep_fn = [&](std::chrono::milliseconds d) { sleeps.push_back(d); };
  ResilientClient client(
      [&]() -> std::unique_ptr<Connection> {
        if (failures_left > 0) {
          --failures_left;
          throw TransportError("connection refused");
        }
        return harness.listener->connect();
      },
      std::move(config));

  const auto response = client.query({.kind = api::QueryKind::kStats});
  ASSERT_TRUE(response.stats.has_value());
  EXPECT_EQ(client.stats().connect_attempts, 3u);
  EXPECT_EQ(client.stats().connects, 1u);
  EXPECT_EQ(client.stats().reconnects, 0u);
  ASSERT_EQ(sleeps.size(), 2u) << "one backoff sleep per failed dial";
  for (const auto d : sleeps) EXPECT_GE(d, 100ms);
  EXPECT_EQ(client.welcome().protocol, api::kProtocolVersion);
}

TEST(ResilientClient, AttemptBudgetExhaustionThrowsRetriesExhausted) {
  ResilientConfig config;
  config.max_connect_attempts = 3;
  config.sleep_fn = [](std::chrono::milliseconds) {};
  ResilientClient client(
      []() -> std::unique_ptr<Connection> { throw TransportError("connection refused"); },
      std::move(config));
  EXPECT_THROW((void)client.query({.kind = api::QueryKind::kStats}), RetriesExhausted);
  EXPECT_EQ(client.stats().connect_attempts, 3u);
  EXPECT_EQ(client.stats().connects, 0u);
}

TEST(ResilientClient, QueryRetriesOnAFreshConnectionWhenTheLinkDiesMidRequest) {
  Harness harness;
  (void)harness.publish_next();
  // The first connection survives exactly the handshake plus 4 bytes: the
  // query request is torn mid-frame and the link drops, like a TCP session
  // dying under a client.
  const auto hello_bytes = api::encode_hello({api::kProtocolVersion, ""}).size();
  std::size_t dials = 0;
  ResilientConfig config;
  config.sleep_fn = [](std::chrono::milliseconds) {};
  ResilientClient client(
      [&] {
        auto conn = harness.listener->connect();
        if (dials++ == 0) {
          return wrap_with_faults(std::move(conn), FaultPlan::cut_write_at(hello_bytes + 4));
        }
        return conn;
      },
      std::move(config));

  const auto response = client.query({.kind = api::QueryKind::kClassOf, .asn = 100});
  ASSERT_TRUE(response.asn_class.has_value());
  EXPECT_EQ(response.asn_class->asn, 100u);
  EXPECT_EQ(dials, 2u);
  EXPECT_EQ(client.stats().connects, 2u);
  EXPECT_EQ(client.stats().reconnects, 1u);
}

TEST(ResilientClient, BusyShedsAreDeferredUntilTheTokenBucketRefills) {
  Harness harness({.stream = {.window_epochs = 1}},
                  {.max_requests_per_sec = 20, .request_burst = 1, .busy_retry_after_ms = 10});
  auto client = harness.client();
  // The bucket holds one token: the first query drains it, the second is
  // shed at least once (kBusy with the hint) and must still come back with
  // an answer once the bucket refills (~50 ms at 20/s).
  ASSERT_TRUE(client.query({.kind = api::QueryKind::kStats}).stats.has_value());
  ASSERT_TRUE(client.query({.kind = api::QueryKind::kStats}).stats.has_value());
  EXPECT_GE(client.stats().busy_deferrals, 1u);
}

TEST(ResilientClient, CloseMakesTheClientInert) {
  Harness harness;
  auto client = harness.client();
  ASSERT_TRUE(client.query({.kind = api::QueryKind::kStats}).stats.has_value());
  client.close();
  EXPECT_FALSE(client.next_event().has_value());
  EXPECT_THROW((void)client.query({.kind = api::QueryKind::kStats}), TransportError);
}

// -------------------------------------------------- handshake refusal --

TEST(ResilientClient, HandshakeRefusalIsPermanentWithNoRedial) {
  // Scripted peer of another protocol version: it refuses the hello by
  // name. There is no older handshake to fall back to, so the refusal
  // surfaces as a ProtocolError after one dial.
  auto listener = std::make_shared<LoopbackListener>();
  std::jthread other_server([&] {  // joins even when the client throws
    FrameBuffer frames;
    auto conn = listener->accept();
    ASSERT_NE(conn, nullptr);
    (void)next_frame(*conn, frames);
    (void)conn->write_all(api::encode_error(
        {0, api::ErrorCode::kBadRequest, "unsupported protocol version 3"}));
    conn->close();
  });

  ResilientConfig config;
  config.max_connect_attempts = 5;
  config.handshake_timeout_ms = 200;  // a wrongful redial fails fast, not hangs
  config.sleep_fn = [](std::chrono::milliseconds) {};
  ResilientClient client([&] { return listener->connect(); }, std::move(config));
  try {
    (void)client.query({.kind = api::QueryKind::kStats});
    FAIL() << "a refused handshake must throw";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.error().code, api::ErrorCode::kBadRequest);
  }
  other_server.join();
  EXPECT_EQ(client.stats().connect_attempts, 1u);
  EXPECT_EQ(client.stats().connects, 0u);
}

// ------------------------------------------------------------ resume --

TEST(ResilientClient, ResumesFromTheLastSeenEpochAfterADrop) {
  Harness harness;
  std::vector<api::EpochDelta> reference;
  reference.push_back(harness.publish_next());  // epoch 0
  reference.push_back(harness.publish_next());  // epoch 1

  Connection* live = nullptr;
  ResilientConfig config;
  config.sleep_fn = [](std::chrono::milliseconds) {};
  ResilientClient client(
      [&] {
        auto conn = harness.listener->connect();
        live = conn.get();
        return conn;
      },
      std::move(config));
  client.subscribe({}, /*replay_from=*/0);
  for (stream::Epoch e = 0; e <= 1; ++e) {
    const auto event = client.next_event();
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->kind, ResilientClient::Event::Kind::kDelta);
    EXPECT_EQ(event->delta.epoch, e);
    EXPECT_EQ(event->delta.changes, reference[e].changes);
  }

  // Kill the link, publish one more epoch, and keep consuming: the client
  // reconnects lazily and resumes from epoch 2 — no duplicates, no holes.
  live->close();
  reference.push_back(harness.publish_next());  // epoch 2

  auto event = client.next_event();
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->kind, ResilientClient::Event::Kind::kReconnected);
  EXPECT_GE(event->attempts, 1u);

  event = client.next_event();
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->kind, ResilientClient::Event::Kind::kDelta);
  EXPECT_EQ(event->delta.epoch, 2u);
  EXPECT_EQ(event->delta.changes, reference[2].changes);

  EXPECT_EQ(client.stats().reconnects, 1u);
  EXPECT_EQ(client.stats().gap_resyncs, 0u) << "the log still covered the resume epoch";
  EXPECT_EQ(client.last_seen_epoch(), 2u);
}

TEST(ResilientClient, HorizonMissResyncsFromASnapshotWithOneGapEvent) {
  // Two-batch retention against five published epochs: after the drop the
  // resume epoch (2) has fallen off the log, so the ack flags the miss and
  // the client rebuilds its view from a snapshot instead of trusting the
  // lossy replayed tail.
  Harness harness({.stream = {.window_epochs = 1}, .event_log_capacity = 2});
  std::vector<api::EpochDelta> reference;
  reference.push_back(harness.publish_next());  // epoch 0
  reference.push_back(harness.publish_next());  // epoch 1

  Connection* live = nullptr;
  ResilientConfig config;
  config.sleep_fn = [](std::chrono::milliseconds) {};
  ResilientClient client(
      [&] {
        auto conn = harness.listener->connect();
        live = conn.get();
        return conn;
      },
      std::move(config));
  client.subscribe({}, /*replay_from=*/0);
  (void)client.next_event();
  (void)client.next_event();

  live->close();
  for (int i = 0; i < 3; ++i) reference.push_back(harness.publish_next());  // 2, 3, 4

  auto event = client.next_event();
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->kind, ResilientClient::Event::Kind::kReconnected)
      << "reconnect is announced before the gap";

  event = client.next_event();
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->kind, ResilientClient::Event::Kind::kGap);
  EXPECT_EQ(event->gap_from, 2u) << "the gap starts at the resume epoch";
  EXPECT_EQ(event->gap_to, 4u);
  EXPECT_EQ(event->delta.epoch, 4u);
  EXPECT_FALSE(event->delta.changes.empty());

  // The synthesized catch-up lands the client on exactly the state an
  // uninterrupted subscriber would have folded from every delta.
  std::map<bgp::Asn, core::UsageClass> expected;
  for (const auto& delta : reference) fold(expected, delta);
  EXPECT_EQ(client.class_state(), expected);
  EXPECT_EQ(client.last_seen_epoch(), 4u);
  EXPECT_EQ(client.stats().gap_resyncs, 1u);

  // The lossy replayed tail (epochs 3-4, already covered by the snapshot)
  // was dropped: a fresh publish is the next thing the stream yields.
  reference.push_back(harness.publish_next());  // epoch 5
  event = client.next_event();
  ASSERT_TRUE(event.has_value());
  ASSERT_EQ(event->kind, ResilientClient::Event::Kind::kDelta);
  EXPECT_EQ(event->delta.epoch, 5u);
}

// --------------------------------------------------------- keepalive --

TEST(ResilientClient, KeepaliveProbesAnIdleStreamInsteadOfBlockingForever) {
  const CounterBaseline counted;
  Harness harness;
  ResilientConfig config;
  config.keepalive_interval_ms = 40;
  config.keepalive_timeout_ms = 1000;
  auto client = harness.client(std::move(config));
  client.subscribe({});

  std::thread publisher([&] {
    std::this_thread::sleep_for(250ms);
    (void)harness.publish_next();
  });
  const auto event = client.next_event();
  publisher.join();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, ResilientClient::Event::Kind::kDelta);
  // ~250 ms of idle at a 40 ms interval: several ping/pong round trips.
  EXPECT_GE(client.stats().pings_sent, 1u);
  EXPECT_GE(counted(obs::metrics().net_pings_received), 1u);
}

}  // namespace
}  // namespace bgpcu::net
