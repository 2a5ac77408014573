// Protocol conformance suite, run entirely over the in-process loopback
// transport — no ports, fully deterministic. Covers the acceptance list:
// handshake + auth rejection, the refusal of protocol-v2 peers, query
// request/response for every kind, pipelining, exact frame counts, framing
// splits across reads, malformed frames and malformed payloads of every
// client frame type, subscription lifecycle (replay, unsubscribe,
// disconnect mid-subscription), slow-subscriber backpressure, half-close,
// the connection limit, keepalive probing, overload shedding, resume
// coverage, and the refusal of connections that cannot be polled.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "counter_baseline.h"
#include "net/client.h"
#include "net/framer.h"
#include "net/loopback.h"
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

/// Polls `condition` for up to ~2 s; the concurrent assertions in this suite
/// are all "eventually true" statements about server-side cleanup.
bool eventually(const std::function<bool()>& condition) {
  for (int i = 0; i < 400; ++i) {
    if (condition()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return condition();
}

/// A Service + Server wired over one LoopbackListener.
struct Harness {
  explicit Harness(ServerConfig config = {}, std::size_t pipe_capacity = std::size_t{1} << 16)
      : service({.stream = {.window_epochs = 1}}),
        listener(std::make_shared<LoopbackListener>(pipe_capacity)),
        server(service, listener, std::move(config)) {
    server.start();
  }

  ~Harness() { server.stop(); }

  [[nodiscard]] Client client(Client::Options options = {}) {
    return Client(listener->connect(), std::move(options));
  }

  /// Flips AS 10 tagger -> silent across two window-1 epochs, publishing both.
  void flip_epochs() {
    (void)service.ingest({tuple(10, 20, true)});
    (void)service.publish();
    (void)service.advance_epoch();
    (void)service.ingest({tuple(10, 20, false)});
    (void)service.publish();
  }

  /// Read before server.start(): counted(c) is how far the server moved c.
  CounterBaseline counted;
  api::Service service;
  std::shared_ptr<LoopbackListener> listener;
  Server server;
};

/// Reads whole frames off a raw connection (for the low-level tests that
/// bypass Client on purpose). Empty on EOF.
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

/// Completes the handshake on a raw connection; returns the welcome.
api::WelcomeFrame hello(Connection& conn, FrameBuffer& frames, const std::string& token = "") {
  EXPECT_TRUE(conn.write_all(api::encode_hello({api::kProtocolVersion, token})));
  return api::decode_welcome(next_frame(conn, frames));
}

/// Reads one frame and checks it is the connection-level kBadRequest that
/// ends a connection, followed by EOF. Returns its message.
std::string expect_fatal_bad_request(Connection& conn, FrameBuffer& frames) {
  const auto frame = next_frame(conn, frames);
  if (frame.empty()) {
    ADD_FAILURE() << "EOF instead of an error frame";
    return {};
  }
  const auto error = api::decode_error(frame);
  EXPECT_EQ(error.code, api::ErrorCode::kBadRequest) << error.message;
  EXPECT_EQ(error.request_id, 0u) << error.message;
  EXPECT_TRUE(next_frame(conn, frames).empty()) << "no EOF after: " << error.message;
  return error.message;
}

// -------------------------------------------------------------- handshake --

TEST(NetProtocol, HandshakeReportsProtocolAndEpoch) {
  Harness harness;
  (void)harness.service.advance_epoch();
  (void)harness.service.advance_epoch();
  auto client = harness.client();
  EXPECT_EQ(client.welcome().protocol, api::kProtocolVersion);
  EXPECT_EQ(client.welcome().epoch, 2u);
}

TEST(NetProtocol, StaleProtocolVersionIsRefusedAtHandshake) {
  // A peer speaking an older (or bogus) protocol version must be refused
  // by name at the hello — it would misdecode grown payloads as trailing
  // garbage otherwise. Exact match, both directions.
  Harness harness;
  for (const std::uint8_t stale :
       {static_cast<std::uint8_t>(api::kProtocolVersion - 1), static_cast<std::uint8_t>(0),
        static_cast<std::uint8_t>(api::kProtocolVersion + 1)}) {
    auto conn = harness.listener->connect();
    ASSERT_TRUE(conn->write_all(api::encode_hello({stale, ""})));
    FrameBuffer frames;
    EXPECT_EQ(expect_fatal_bad_request(*conn, frames),
              "unsupported protocol version " + std::to_string(stale));
  }
  // The current version still gets through.
  auto ok = harness.client();
  EXPECT_EQ(ok.welcome().protocol, api::kProtocolVersion);
}

TEST(NetProtocol, ProtocolV2OpenersGetOneErrorThenEof) {
  // Both v2 openers: the plain hello (frame type 5, now retired) and the
  // feature-negotiating hello (type 15, like the v3 hello, plus a
  // feature-bits varint the v3 payload decoder rejects). The server reads
  // the version byte before the rest, so the second peer learns why by name.
  Harness harness;
  auto plain_hello = api::encode_hello({2, ""});
  plain_hello[5] = 5;
  auto feature_hello = api::encode_hello({2, ""});
  feature_hello.push_back(0x07);  // the v2 client's "all features" bits
  ++feature_hello[6];             // one-byte payload length field
  for (const auto& [opener, message] :
       {std::pair{plain_hello, std::string("retired frame type 5")},
        std::pair{feature_hello, std::string("unsupported protocol version 2")}}) {
    auto conn = harness.listener->connect();
    ASSERT_TRUE(conn->write_all(opener));
    FrameBuffer frames;
    EXPECT_NE(expect_fatal_bad_request(*conn, frames).find(message), std::string::npos)
        << message;
  }
  EXPECT_EQ(harness.counted(obs::metrics().net_protocol_errors), 2u);
  // The server keeps serving.
  auto ok = harness.client();
  EXPECT_TRUE(ok.query({.kind = api::QueryKind::kStats}).stats.has_value());
}

TEST(NetProtocol, WrongAuthTokenIsRejected) {
  Harness harness({.auth_token = "sesame"});
  try {
    auto client = harness.client({.token = "wrong"});
    FAIL() << "handshake with a bad token must throw";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.error().code, api::ErrorCode::kAuthFailed);
    EXPECT_EQ(e.error().request_id, 0u);
  }
  EXPECT_EQ(harness.counted(obs::metrics().net_auth_failures), 1u);

  // The right token still gets through afterwards.
  auto ok = harness.client({.token = "sesame"});
  EXPECT_EQ(ok.welcome().protocol, api::kProtocolVersion);
}

TEST(NetProtocol, MissingTokenIsRejectedWhenServerRequiresOne) {
  Harness harness({.auth_token = "sesame"});
  EXPECT_THROW((void)harness.client(), ProtocolError);
}

TEST(NetProtocol, FirstFrameMustBeHello) {
  Harness harness;
  auto conn = harness.listener->connect();
  ASSERT_TRUE(conn->write_all(api::encode_request({1, {.kind = api::QueryKind::kStats}})));
  FrameBuffer frames;
  const auto frame = next_frame(*conn, frames);
  ASSERT_FALSE(frame.empty());
  const auto error = api::decode_error(frame);
  EXPECT_EQ(error.code, api::ErrorCode::kBadRequest);
  EXPECT_TRUE(next_frame(*conn, frames).empty());  // then the server hangs up
}

// ---------------------------------------------------------------- queries --

TEST(NetProtocol, EveryQueryKindMatchesDirectServiceAnswers) {
  Harness harness;
  (void)harness.service.ingest({tuple(10, 20, true), tuple(11, 20, false)});
  (void)harness.service.publish();
  auto client = harness.client();

  const auto class_of = client.query({.kind = api::QueryKind::kClassOf, .asn = 10});
  const auto direct = harness.service.query({.kind = api::QueryKind::kClassOf, .asn = 10});
  EXPECT_EQ(class_of.asn_class, direct.asn_class);
  ASSERT_TRUE(class_of.asn_class.has_value());
  EXPECT_EQ(class_of.asn_class->usage.code(), "tn");

  const auto live = client.query({.kind = api::QueryKind::kLiveCounters, .asn = 11});
  EXPECT_EQ(live.asn_class,
            harness.service.query({.kind = api::QueryKind::kLiveCounters, .asn = 11}).asn_class);

  const auto snapshot = client.query({.kind = api::QueryKind::kSnapshot});
  ASSERT_TRUE(snapshot.snapshot != nullptr);
  EXPECT_FALSE(snapshot.snapshot->counter_map().empty());
  EXPECT_EQ(snapshot.snapshot->counter_map(),
            harness.service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map());

  const auto stats = client.query({.kind = api::QueryKind::kStats});
  ASSERT_TRUE(stats.stats.has_value());
  EXPECT_EQ(stats.stats->live_tuples, 2u);
}

TEST(NetProtocol, PublishedQueriesCarryThePublishEpoch) {
  // kClassOf, kSnapshot and kHistory answer at the published epoch and say
  // which; an ingest that is not yet published moves neither.
  Harness harness;
  harness.flip_epochs();  // AS 10: tagger at epoch 0, silent at epoch 1
  auto client = harness.client();
  const auto expect_at = [&](stream::Epoch epoch, const std::string& code) {
    const auto class_of = client.query({.kind = api::QueryKind::kClassOf, .asn = 10});
    const auto snapshot = client.query({.kind = api::QueryKind::kSnapshot});
    const auto history = client.query({.kind = api::QueryKind::kHistory, .asn = 10});
    EXPECT_EQ(class_of.epoch, epoch);
    EXPECT_EQ(snapshot.epoch, epoch);
    EXPECT_EQ(history.epoch, epoch);
    EXPECT_EQ(class_of.asn_class->usage.code(), code);
    EXPECT_EQ(snapshot.snapshot->usage(10).code(), code);
    EXPECT_EQ(history.history->back().epoch, epoch);
    EXPECT_EQ(history.history->back().usage.code(), code);
    // Real-time kinds carry no epoch field.
    EXPECT_EQ(client.query({.kind = api::QueryKind::kLiveCounters, .asn = 10}).epoch, 0u);
  };
  expect_at(1, "sn");

  (void)harness.service.advance_epoch();  // window 1: AS 10's tuple ages out
  (void)harness.service.ingest({tuple(10, 20, true)});
  expect_at(1, "sn");

  const auto published = harness.service.publish();
  ASSERT_EQ(published.epoch, 2u);
  expect_at(published.epoch, "tn");
}

TEST(NetProtocol, MetricsQueryReturnsTheFullRegistryScrape) {
  Harness harness;
  (void)harness.service.ingest({tuple(10, 20, true)});
  auto client = harness.client();
  const auto response = client.query({.kind = api::QueryKind::kMetrics});
  ASSERT_TRUE(response.metrics.has_value());

  // The wire scrape covers every instrumented layer and counts itself.
  bool net = false, stream = false, api_fam = false, snap = false;
  double metrics_queries = -1;
  for (const auto& family : *response.metrics) {
    net = net || family.name.starts_with("bgpcu_net_");
    stream = stream || family.name.starts_with("bgpcu_stream_");
    api_fam = api_fam || family.name.starts_with("bgpcu_api_");
    snap = snap || family.name.starts_with("bgpcu_snapshot_");
    if (family.name == "bgpcu_api_queries_total") {
      for (const auto& series : family.series) {
        if (series.labels == "kind=\"metrics\"") metrics_queries = series.value;
      }
    }
  }
  EXPECT_TRUE(net);
  EXPECT_TRUE(stream);
  EXPECT_TRUE(api_fam);
  EXPECT_TRUE(snap);
  EXPECT_GE(metrics_queries, 1.0) << "the scrape must include its own query";
}

TEST(NetProtocol, MetricsKindIsAdditiveForV2Clients) {
  // kMetrics rode into protocol v2 without a version bump — a client that
  // never requests it must see exactly the pre-metrics surface: no metrics
  // payload on any other query kind.
  Harness harness;
  (void)harness.service.ingest({tuple(10, 20, true)});
  auto client = harness.client();
  EXPECT_EQ(client.welcome().protocol, api::kProtocolVersion);
  for (const auto kind : {api::QueryKind::kClassOf, api::QueryKind::kSnapshot,
                          api::QueryKind::kLiveCounters, api::QueryKind::kStats}) {
    const auto response = client.query({.kind = kind, .asn = 10});
    EXPECT_EQ(response.kind, kind);
    EXPECT_FALSE(response.metrics.has_value())
        << "non-metrics kind carried a metrics payload";
  }
}

TEST(NetProtocol, HistoryQueryRoundTripsRetainedPlusLivePoints) {
  // kHistory over the wire: the installed provider's retained points arrive
  // exactly as the Service's direct answer — sanitized, epoch-ascending, and
  // closed by the published class.
  Harness harness;
  harness.flip_epochs();  // AS 10: tagger at epoch 0, silent at epoch 1
  harness.service.set_history_provider([](bgp::Asn asn) {
    std::vector<api::HistoryPoint> points;
    if (asn == 10) {
      points.push_back({0, {core::TaggingClass::kTagger, core::ForwardingClass::kNone}});
    }
    return points;
  });

  auto client = harness.client();
  const auto over_wire = client.query({.kind = api::QueryKind::kHistory, .asn = 10});
  const auto direct = harness.service.query({.kind = api::QueryKind::kHistory, .asn = 10});
  ASSERT_TRUE(over_wire.history.has_value());
  ASSERT_TRUE(direct.history.has_value());
  EXPECT_EQ(*over_wire.history, *direct.history);
  ASSERT_GE(over_wire.history->size(), 2u);
  EXPECT_EQ(over_wire.history->front().epoch, 0u);
  EXPECT_EQ(over_wire.history->front().usage.code(), "tn");
  EXPECT_EQ(over_wire.history->back().usage.code(), "sn");

  // Without a provider the series still closes at the published class: one
  // point.
  harness.service.set_history_provider({});
  const auto bare = client.query({.kind = api::QueryKind::kHistory, .asn = 10});
  ASSERT_TRUE(bare.history.has_value());
  EXPECT_EQ(bare.history->size(), 1u);
}

TEST(NetProtocol, HistoryKindIsAdditiveForV2Clients) {
  // kHistory rode into protocol v2 without a version bump, like kMetrics —
  // a client that never asks for it sees the exact pre-history surface.
  Harness harness;
  (void)harness.service.ingest({tuple(10, 20, true)});
  auto client = harness.client();
  EXPECT_EQ(client.welcome().protocol, api::kProtocolVersion);
  for (const auto kind : {api::QueryKind::kClassOf, api::QueryKind::kSnapshot,
                          api::QueryKind::kLiveCounters, api::QueryKind::kStats,
                          api::QueryKind::kMetrics}) {
    const auto response = client.query({.kind = kind, .asn = 10});
    EXPECT_EQ(response.kind, kind);
    EXPECT_FALSE(response.history.has_value())
        << "non-history kind carried a history payload";
  }
}

TEST(NetProtocol, PipelinedRequestsAreAnsweredInOrder) {
  Harness harness;
  (void)harness.service.ingest({tuple(10, 20, true)});
  auto conn = harness.listener->connect();

  // Hello plus five requests written as one burst, no reads in between.
  std::vector<std::uint8_t> burst = api::encode_hello({api::kProtocolVersion, ""});
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const auto frame =
        id % 2 ? api::encode_request({id, {.kind = api::QueryKind::kStats}})
               : api::encode_request({id, {.kind = api::QueryKind::kClassOf, .asn = 10}});
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(conn->write_all(burst));

  FrameBuffer frames;
  const auto welcome = next_frame(*conn, frames);
  ASSERT_FALSE(welcome.empty());
  EXPECT_EQ(api::peek_frame_type(welcome), api::FrameType::kWelcome);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const auto frame = next_frame(*conn, frames);
    ASSERT_FALSE(frame.empty()) << "response " << id;
    const auto response = api::decode_response(frame);
    EXPECT_EQ(response.request_id, id) << "pipelined responses must keep request order";
  }
}

TEST(NetProtocol, EveryFrameIsCountedOnceEachWay) {
  // The frame counters are the registry's only record of frame traffic: a
  // handshake plus N answered requests is hello + N requests in and
  // welcome + N replies out.
  constexpr std::uint64_t kRequests = 4;
  Harness harness;
  {
    auto conn = harness.listener->connect();
    FrameBuffer frames;
    (void)hello(*conn, frames);
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
      ASSERT_TRUE(conn->write_all(api::encode_request({id, {.kind = api::QueryKind::kStats}})));
      EXPECT_EQ(api::decode_response(next_frame(*conn, frames)).request_id, id);
    }
  }
  harness.server.stop();  // joins the IO loops: the last reply's send is counted
  EXPECT_EQ(harness.counted(obs::metrics().net_frames_received), kRequests + 1);
  EXPECT_EQ(harness.counted(obs::metrics().net_frames_sent), kRequests + 1);
}

TEST(NetProtocol, FramesSplitAcrossReadsAreReassembled) {
  Harness harness;
  (void)harness.service.ingest({tuple(10, 20, true)});
  auto conn = harness.listener->connect();

  std::vector<std::uint8_t> burst = api::encode_hello({api::kProtocolVersion, ""});
  const auto request = api::encode_request({9, {.kind = api::QueryKind::kClassOf, .asn = 10}});
  burst.insert(burst.end(), request.begin(), request.end());
  // One byte at a time: the server-side FrameBuffer must reassemble.
  for (const auto byte : burst) {
    ASSERT_TRUE(conn->write_all(std::span(&byte, 1)));
  }

  FrameBuffer frames;
  EXPECT_EQ(api::peek_frame_type(next_frame(*conn, frames)), api::FrameType::kWelcome);
  const auto response = api::decode_response(next_frame(*conn, frames));
  EXPECT_EQ(response.request_id, 9u);
  ASSERT_TRUE(response.response.asn_class.has_value());
  EXPECT_EQ(response.response.asn_class->asn, 10u);
}

TEST(NetProtocol, MalformedBytesGetErrorFrameThenClose) {
  Harness harness;
  auto conn = harness.listener->connect();
  FrameBuffer frames;
  (void)hello(*conn, frames);

  const std::vector<std::uint8_t> garbage = {'n', 'o', 't', ' ', 'w', 'i', 'r', 'e'};
  ASSERT_TRUE(conn->write_all(garbage));
  (void)expect_fatal_bad_request(*conn, frames);
  EXPECT_GE(harness.counted(obs::metrics().net_protocol_errors), 1u);
}

/// `frame` (payload under 128 bytes) with its payload one byte shorter
/// (`delta` -1) or carrying one garbage byte more (`delta` +1); the frame
/// header stays valid, so only the payload decoder can object.
std::vector<std::uint8_t> reshape_payload(std::vector<std::uint8_t> frame, int delta) {
  if (delta < 0) {
    frame.pop_back();
  } else {
    frame.push_back(0);
  }
  frame[6] = static_cast<std::uint8_t>(frame[6] + delta);  // one-byte length field
  return frame;
}

TEST(NetProtocol, MalformedPayloadOfEveryClientTypeGetsBadRequestThenClose) {
  // A well-framed frame whose payload does not decode must cost the sender
  // its connection (one kBadRequest, id 0, then EOF) and nothing else: the
  // daemon keeps serving. The hello goes out unauthenticated, so this holds
  // before auth too.
  Harness harness({.auth_token = "sesame"});
  const std::vector<std::pair<std::string, std::vector<std::uint8_t>>> valid = {
      {"hello", api::encode_hello({api::kProtocolVersion, ""})},
      {"ping", api::encode_ping({7})},
      {"pong", api::encode_ping({7}, api::FrameType::kPong)},
      {"request", api::encode_request({1, {.kind = api::QueryKind::kStats}})},
      {"subscribe", api::encode_subscribe({1, {}, std::nullopt})},
      {"unsubscribe", api::encode_unsubscribe({1, 1})},
  };
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> malformed;
  for (const auto& [name, frame] : valid) {
    malformed.emplace_back(name + " truncated", reshape_payload(frame, -1));
    malformed.emplace_back(name + " with trailing garbage", reshape_payload(frame, +1));
  }
  auto unknown_kind = api::encode_request({1, {.kind = api::QueryKind::kStats}});
  unknown_kind.back() = 99;  // the query-kind byte
  malformed.emplace_back("request of query kind 99", unknown_kind);

  std::uint64_t expected_errors = 0;
  for (const auto& [name, frame] : malformed) {
    SCOPED_TRACE(name);
    auto conn = harness.listener->connect();
    FrameBuffer frames;
    if (api::peek_frame_type(frame) != api::FrameType::kHello) {
      (void)hello(*conn, frames, "sesame");
    }
    ASSERT_TRUE(conn->write_all(frame));
    (void)expect_fatal_bad_request(*conn, frames);
    EXPECT_EQ(harness.counted(obs::metrics().net_protocol_errors), ++expected_errors);
  }
  EXPECT_EQ(harness.counted(obs::metrics().net_auth_failures), 0u);
  auto client = harness.client({.token = "sesame"});
  EXPECT_TRUE(client.query({.kind = api::QueryKind::kStats}).stats.has_value());
}

TEST(NetProtocol, ArtifactFrameTypesAreRejectedAsClientInput) {
  Harness harness;
  auto conn = harness.listener->connect();
  FrameBuffer frames;
  (void)hello(*conn, frames);

  // A structurally valid frame of a type clients must not send.
  ASSERT_TRUE(conn->write_all(api::encode_delta_batch({0, {}})));
  const auto error = api::decode_error(next_frame(*conn, frames));
  EXPECT_EQ(error.code, api::ErrorCode::kBadRequest);
  EXPECT_TRUE(next_frame(*conn, frames).empty());
}

TEST(NetProtocol, HalfCloseFlushesAllPendingResponses) {
  Harness harness;
  (void)harness.service.ingest({tuple(10, 20, true)});
  auto conn = harness.listener->connect();

  std::vector<std::uint8_t> burst = api::encode_hello({api::kProtocolVersion, ""});
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto frame = api::encode_request({id, {.kind = api::QueryKind::kStats}});
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(conn->write_all(burst));
  conn->shutdown_write();  // requests done; answers must still arrive

  FrameBuffer frames;
  EXPECT_EQ(api::peek_frame_type(next_frame(*conn, frames)), api::FrameType::kWelcome);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    const auto frame = next_frame(*conn, frames);
    ASSERT_FALSE(frame.empty()) << "response " << id << " lost at half-close";
    EXPECT_EQ(api::decode_response(frame).request_id, id);
  }
  EXPECT_TRUE(next_frame(*conn, frames).empty());  // clean EOF after the tail
}

// ---------------------------------------------------------- subscriptions --

TEST(NetProtocol, SubscriptionStreamsFilteredEvents) {
  Harness harness;
  auto client = harness.client();
  const auto sub_id = client.subscribe(api::SubscriptionFilter::transition("tn->sn"));
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));

  harness.flip_epochs();
  const auto event = client.next_event();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->subscription_id, sub_id);
  EXPECT_EQ(event->delta.epoch, 1u);
  ASSERT_EQ(event->delta.changes.size(), 1u);
  EXPECT_EQ(event->delta.changes[0].asn, 10u);
  EXPECT_EQ(event->delta.changes[0].before.code(), "tn");
  EXPECT_EQ(event->delta.changes[0].after.code(), "sn");
}

TEST(NetProtocol, ReplayFromDeliversRetainedHistoryBeforeLiveEvents) {
  Harness harness;
  harness.flip_epochs();  // epochs 0 and 1 now sit in the event log

  auto client = harness.client();
  (void)client.subscribe({}, /*replay_from=*/0);
  const auto first = client.next_event();
  const auto second = client.next_event();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->delta.epoch, 0u);
  EXPECT_EQ(second->delta.epoch, 1u);

  // Live events keep flowing after the replayed tail.
  (void)harness.service.advance_epoch();
  (void)harness.service.ingest({tuple(10, 20, true)});
  (void)harness.service.publish();
  const auto live = client.next_event();
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->delta.epoch, 2u);
}

TEST(NetProtocol, UnsubscribeStopsTheStream) {
  Harness harness;
  auto client = harness.client();
  const auto sub_id = client.subscribe({});
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));

  client.unsubscribe(sub_id);
  EXPECT_EQ(harness.service.subscription_count(), 0u);

  try {
    client.unsubscribe(999);
    FAIL() << "unknown subscription id must be an error";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.error().code, api::ErrorCode::kUnknownSubscription);
  }
}

TEST(NetProtocol, PerConnectionSubscriptionLimitIsEnforced) {
  Harness harness({.max_subscriptions_per_connection = 2});
  auto client = harness.client();
  const auto first = client.subscribe({});
  (void)client.subscribe(api::SubscriptionFilter::transition("*->tc"));
  try {
    (void)client.subscribe({});
    FAIL() << "third subscription must be rejected";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.error().code, api::ErrorCode::kBadRequest);
  }
  // Non-fatal: the connection keeps working, and unsubscribing frees a slot.
  EXPECT_EQ(harness.service.subscription_count(), 2u);
  client.unsubscribe(first);
  (void)client.subscribe({});
  EXPECT_EQ(harness.service.subscription_count(), 2u);
}

TEST(NetProtocol, DisconnectMidSubscriptionCleansUpServerSide) {
  Harness harness;
  {
    auto client = harness.client();
    (void)client.subscribe({});
    EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));
    client.close();
  }
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 0; }));
  EXPECT_TRUE(eventually([&] { return harness.server.connection_count() == 0; }));
  // Publishing after the disconnect reaches nobody and blocks nothing.
  harness.flip_epochs();
}

TEST(NetProtocol, SlowSubscriberIsDisconnectedWithoutStallingPublish) {
  // Tiny pipes + a queue bound of a few small frames: a subscriber that
  // never reads overflows almost immediately. The publisher must never
  // block on it, and a well-behaved subscriber on another connection must
  // see every event.
  Harness harness({.write_queue_bytes_limit = 256}, /*pipe_capacity=*/64);

  auto slow = harness.listener->connect();  // raw: we control (don't do) reads
  ASSERT_TRUE(slow->write_all(api::encode_hello({api::kProtocolVersion, ""})));
  const auto subscribe_frame = api::encode_subscribe({1, {}, std::nullopt});
  ASSERT_TRUE(slow->write_all(subscribe_frame));

  auto good = harness.client();
  (void)good.subscribe({});
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 2; }));

  // Each published epoch changes AS (100+e)'s class; the slow side's queue
  // fills while the good side drains. publish() must return promptly every
  // time — it enqueues, it never writes.
  for (stream::Epoch e = 0; e < 12; ++e) {
    if (e > 0) (void)harness.service.advance_epoch();
    (void)harness.service.ingest({tuple(100 + static_cast<bgp::Asn>(e), 20, true)});
    (void)harness.service.publish();
    const auto event = good.next_event();
    ASSERT_TRUE(event.has_value()) << "well-behaved subscriber starved at epoch " << e;
    EXPECT_EQ(event->delta.epoch, e);
  }

  EXPECT_TRUE(eventually(
      [&] { return harness.counted(obs::metrics().net_slow_disconnects) == 1; }));
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));
}

TEST(NetProtocol, ByteBoundCatchesSlowSubscriberThatFrameCountMisses) {
  // Regression: the write queue was originally bounded only by frame COUNT,
  // so a handful of multi-KB event frames sat under the limit while pinning
  // unbounded memory. The byte bound must fire with only a few frames
  // queued.
  Harness harness({.write_queue_bytes_limit = 2048}, /*pipe_capacity=*/64);

  auto slow = harness.listener->connect();  // raw: we control (don't do) reads
  ASSERT_TRUE(slow->write_all(api::encode_hello({api::kProtocolVersion, ""})));
  ASSERT_TRUE(slow->write_all(api::encode_subscribe({1, {}, std::nullopt})));

  auto good = harness.client();
  (void)good.subscribe({});
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 2; }));

  // Each epoch flips hundreds of ASNs, so every event frame is large; a few
  // of them queued unread cross the byte bound.
  for (stream::Epoch e = 0; e < 12; ++e) {
    if (e > 0) (void)harness.service.advance_epoch();
    core::Dataset batch;
    for (bgp::Asn peer = 1; peer <= 300; ++peer) {
      batch.push_back(tuple(peer, 20, (e + peer) % 2 == 0));
    }
    (void)harness.service.ingest(std::move(batch));
    (void)harness.service.publish();
    const auto event = good.next_event();
    ASSERT_TRUE(event.has_value()) << "well-behaved subscriber starved at epoch " << e;
    EXPECT_EQ(event->delta.epoch, e);
  }

  EXPECT_TRUE(eventually(
      [&] { return harness.counted(obs::metrics().net_slow_disconnects) == 1; }));
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));
}

TEST(NetProtocol, OneFrameLargerThanTheByteLimitStillGoesOut) {
  // The byte check is on bytes ALREADY queued: a single response larger
  // than write_queue_bytes_limit on an otherwise-empty queue is delivered,
  // not treated as an overflow — the bound is backpressure, not a frame
  // size cap (max_request_payload caps the other direction).
  Harness harness({.write_queue_bytes_limit = 512});
  core::Dataset batch;
  for (bgp::Asn peer = 1; peer <= 400; ++peer) {
    batch.push_back(tuple(peer, 20, true));
  }
  (void)harness.service.ingest(std::move(batch));
  (void)harness.service.publish();

  auto conn = harness.listener->connect();
  ASSERT_TRUE(conn->write_all(api::encode_hello({api::kProtocolVersion, ""})));
  ASSERT_TRUE(conn->write_all(api::encode_request({1, {.kind = api::QueryKind::kSnapshot}})));
  FrameBuffer frames;
  (void)next_frame(*conn, frames);  // welcome
  const auto frame = next_frame(*conn, frames);
  ASSERT_GT(frame.size(), 512u) << "snapshot too small to exercise the oversized path";
  const auto response = api::decode_response(frame);
  ASSERT_TRUE(response.response.snapshot != nullptr);
  EXPECT_EQ(harness.counted(obs::metrics().net_slow_disconnects), 0u);
}

TEST(NetProtocol, PipeliningPeerThatNeverReadsIsShedUnderTheDefaultBound) {
  // A peer that pipelines requests and never reads a reply fills its write
  // queue with tiny frames. Each queued frame is charged its queue slot and
  // buffer on top of its wire bytes, so the default byte bound also caps
  // the frame count: the peer is cut long before the replies' wire bytes
  // alone (under 30 bytes each) could add up to the bound.
  Harness harness;
  auto conn = harness.listener->connect();  // raw: we never read
  ASSERT_TRUE(conn->write_all(api::encode_hello({api::kProtocolVersion, ""})));

  constexpr std::uint64_t kBurst = 4096;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 0; id < kBurst; ++id) {
    const auto request =
        api::encode_request({id, {.kind = api::QueryKind::kClassOf, .asn = 10}});
    burst.insert(burst.end(), request.begin(), request.end());
  }
  // Every queued reply costs at least 64 bytes against the bound, and the
  // pipe buffers at most 64 KiB of replies ahead of the queue, so fewer
  // requests than this must overflow it; their replies' wire bytes come to
  // under a third of the bound. The server stops reading while requests
  // wait for dispatch, so the writes below cannot run far ahead of the
  // answers: they fail once the server hangs up.
  const std::uint64_t cap = ServerConfig{}.write_queue_bytes_limit / 64 + (1u << 16);
  std::uint64_t sent = 0;
  while (sent < cap && conn->write_all(burst)) sent += kBurst;
  EXPECT_LT(sent, cap) << "a non-reading peer was never shed";
  EXPECT_TRUE(eventually(
      [&] { return harness.counted(obs::metrics().net_slow_disconnects) == 1; }));
  EXPECT_TRUE(eventually([&] { return harness.server.connection_count() == 0; }));
}

// ---------------------------------------------------------------- limits --

TEST(NetProtocol, SilentConnectionIsDroppedAtTheHelloDeadline) {
  // A connect that never speaks must not pin its threads and conns_ slot
  // forever — the handshake runs against a deadline.
  Harness harness({.hello_timeout_ms = 100});
  auto conn = harness.listener->connect();
  EXPECT_TRUE(eventually([&] { return harness.server.connection_count() == 0; }));
  // The server hung up on us; our next read sees end-of-stream.
  FrameBuffer frames;
  EXPECT_TRUE(next_frame(*conn, frames).empty());

  // A client that does speak is unaffected by the deadline, before and
  // after it would have elapsed.
  auto client = harness.client();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(client.query({.kind = api::QueryKind::kStats}).stats->epoch, 0u);
}

/// A loopback connection that reports no readiness fds, as one whose
/// eventfd creation failed would.
class NonPollableConnection : public Connection {
 public:
  explicit NonPollableConnection(std::unique_ptr<Connection> inner)
      : inner_(std::move(inner)) {}
  std::size_t read_some(std::span<std::uint8_t> out) override {
    return inner_->read_some(out);
  }
  void set_read_timeout(std::chrono::milliseconds timeout) override {
    inner_->set_read_timeout(timeout);
  }
  bool write_all(std::span<const std::uint8_t> data) override {
    return inner_->write_all(data);
  }
  void shutdown_write() override { inner_->shutdown_write(); }
  void close() override { inner_->close(); }
  [[nodiscard]] std::string peer_name() const override { return inner_->peer_name(); }
  [[nodiscard]] PollInfo poll_info() const override { return {}; }
  IoStatus try_read(std::span<std::uint8_t> out, std::size_t& n) override {
    return inner_->try_read(out, n);
  }
  IoStatus try_write(std::span<const std::uint8_t> data, std::size_t& n) override {
    return inner_->try_write(data, n);
  }

 private:
  std::unique_ptr<Connection> inner_;
};

/// Hands out its first accepted connection as non-pollable.
class FirstNonPollableListener : public Listener {
 public:
  explicit FirstNonPollableListener(std::shared_ptr<LoopbackListener> inner)
      : inner_(std::move(inner)) {}
  std::unique_ptr<Connection> accept() override {
    auto conn = inner_->accept();
    if (conn && accepted_++ == 0) {
      return std::make_unique<NonPollableConnection>(std::move(conn));
    }
    return conn;
  }
  void close() override { inner_->close(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<LoopbackListener> inner_;
  std::size_t accepted_ = 0;  ///< Accept-thread only.
};

TEST(NetProtocol, NonPollableConnectionIsClosedAtAcceptWithoutTakingASlot) {
  api::Service service({.stream = {.window_epochs = 1}});
  auto inner = std::make_shared<LoopbackListener>();
  Server server(service, std::make_shared<FirstNonPollableListener>(inner),
                {.max_connections = 1});
  const CounterBaseline counted;
  server.start();

  // The refused connection just ends: no welcome, no error frame. (The
  // hello may or may not land before the close.)
  auto refused = inner->connect();
  (void)refused->write_all(api::encode_hello({api::kProtocolVersion, ""}));
  FrameBuffer frames;
  EXPECT_TRUE(next_frame(*refused, frames).empty());
  EXPECT_EQ(server.connection_count(), 0u);

  // With max_connections = 1, a leaked slot would turn this client away.
  Client healthy(inner->connect());
  EXPECT_EQ(healthy.welcome().protocol, api::kProtocolVersion);
  EXPECT_TRUE(healthy.query({.kind = api::QueryKind::kStats}).stats.has_value());
  EXPECT_EQ(counted(obs::metrics().net_connections_accepted), 1u);
  EXPECT_EQ(counted(obs::metrics().net_connections_rejected), 0u);
  server.stop();
}

TEST(NetProtocol, ConnectionLimitTurnsExtraClientsAway) {
  Harness harness({.max_connections = 1, .busy_retry_after_ms = 400});
  auto first = harness.client();
  EXPECT_EQ(first.welcome().protocol, api::kProtocolVersion);

  // The over-limit opener gets one connection-level kBusy carrying the
  // retry hint, then EOF.
  auto conn = harness.listener->connect();
  ASSERT_TRUE(conn->write_all(api::encode_hello({api::kProtocolVersion, ""})));
  FrameBuffer frames;
  const auto frame = next_frame(*conn, frames);
  ASSERT_FALSE(frame.empty());
  ASSERT_EQ(api::peek_frame_type(frame), api::FrameType::kBusy);
  const auto busy = api::decode_busy(frame);
  EXPECT_EQ(busy.request_id, 0u) << "admission rejects are connection-level";
  EXPECT_EQ(busy.retry_after_ms, 400u);
  EXPECT_TRUE(next_frame(*conn, frames).empty());

  // net::Client surfaces the same shed as a BusyError.
  try {
    auto second = harness.client();
    FAIL() << "second client must be rejected";
  } catch (const BusyError& e) {
    EXPECT_EQ(e.retry_after_ms(), 400u);
  }
  EXPECT_EQ(harness.counted(obs::metrics().net_connections_rejected), 2u);
  EXPECT_EQ(harness.counted(obs::metrics().net_busy_rejections), 2u);

  // Closing the first connection frees the slot.
  first.close();
  EXPECT_TRUE(eventually([&] {
    try {
      auto retry = harness.client();
      return true;
    } catch (const BusyError&) {
      return false;
    }
  }));
}

TEST(NetProtocol, ServerStopEndsOpenConnections) {
  auto harness = std::make_unique<Harness>();
  auto client = harness->client();
  harness->server.stop();
  EXPECT_TRUE(eventually([&] {
    try {
      (void)client.query({.kind = api::QueryKind::kStats});
      return false;
    } catch (const std::exception&) {
      return true;  // TransportError (EOF) or a late error frame
    }
  }));
}

// ------------------------------------------------ welcome and keepalive --

TEST(NetProtocol, WelcomeReportsTheReplayHorizon) {
  Harness harness;
  // Nothing published yet: no horizon, which must differ from horizon 0.
  EXPECT_FALSE(harness.client().welcome().replay_horizon.has_value());
  harness.flip_epochs();
  const auto welcome = harness.client().welcome();
  EXPECT_EQ(welcome.protocol, api::kProtocolVersion);
  EXPECT_EQ(welcome.epoch, 1u);
  // Two epochs published, default retention: the advisory horizon is 0.
  ASSERT_TRUE(welcome.replay_horizon.has_value());
  EXPECT_EQ(*welcome.replay_horizon, 0u);
}

TEST(NetProtocol, PingIsAnsweredWithPongEchoingTheNonce) {
  Harness harness;
  auto conn = harness.listener->connect();
  FrameBuffer frames;
  (void)hello(*conn, frames);
  ASSERT_TRUE(conn->write_all(api::encode_ping({0xDEADBEEF})));
  const auto reply = next_frame(*conn, frames);
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(api::peek_frame_type(reply), api::FrameType::kPong);
  EXPECT_EQ(api::decode_ping(reply, api::FrameType::kPong).nonce, 0xDEADBEEFu);
  EXPECT_EQ(harness.counted(obs::metrics().net_pings_received), 1u);
}

TEST(NetProtocol, ReadingResumesAfterABacklogOfFramesThatNeedNoReply) {
  // Reading pauses while a backlog of inbound frames waits for dispatch.
  // Unsolicited pongs produce no reply, so only the drained backlog itself
  // can resume reading: a request queued behind ~3x that backlog of pongs
  // must still be answered.
  Harness harness;
  auto conn = harness.listener->connect();
  FrameBuffer frames;
  (void)hello(*conn, frames);
  std::vector<std::uint8_t> all;
  for (std::uint64_t nonce = 0; nonce < 50000; ++nonce) {
    const auto pong = api::encode_ping({nonce}, api::FrameType::kPong);
    all.insert(all.end(), pong.begin(), pong.end());
  }
  const auto request = api::encode_request({1, {.kind = api::QueryKind::kStats}});
  all.insert(all.end(), request.begin(), request.end());
  // The write blocks while reading is paused, so it gets its own thread;
  // a read deadline turns a wedged server into a failure, not a hang.
  std::thread writer([&] { (void)conn->write_all(all); });
  conn->set_read_timeout(10s);
  const auto reply = next_frame(*conn, frames);
  conn->close();  // unblocks the writer if the server wedged
  writer.join();
  ASSERT_FALSE(reply.empty()) << "reading never resumed after the backlog drained";
  EXPECT_EQ(api::decode_response(reply).request_id, 1u);
}

TEST(NetProtocol, SilentPeerIsProbedThenTornDownAfterTheKeepaliveTimeout) {
  // Keepalive applies to every connection once its handshake is done. A
  // peer that then sends nothing, not even the pong, is probed once and
  // reaped when the timeout passes, which frees its slot.
  Harness harness(
      {.max_connections = 1, .keepalive_interval_ms = 50, .keepalive_timeout_ms = 100});
  auto conn = harness.listener->connect();
  conn->set_read_timeout(5s);  // a missing probe fails the test, not hangs it
  FrameBuffer frames;
  (void)hello(*conn, frames);
  const auto probe = next_frame(*conn, frames);
  ASSERT_FALSE(probe.empty());
  EXPECT_EQ(api::peek_frame_type(probe), api::FrameType::kPing);
  EXPECT_TRUE(next_frame(*conn, frames).empty()) << "a silent peer must be torn down";
  EXPECT_TRUE(eventually([&] { return harness.server.connection_count() == 0; }));
  EXPECT_EQ(harness.counted(obs::metrics().net_keepalive_probes), 1u);
  EXPECT_EQ(harness.counted(obs::metrics().net_keepalive_disconnects), 1u);

  // max_connections is 1: a leaked slot would turn this client away busy.
  auto client = harness.client();
  EXPECT_TRUE(client.query({.kind = api::QueryKind::kStats}).stats.has_value());
}

TEST(NetProtocol, ClientBlockedInNextEventAnswersKeepaliveProbes) {
  // net::Client answers every kPing while it reads, so a subscriber waiting
  // out a quiet feed across many probe intervals stays connected and gets
  // the next published event.
  Harness harness({.keepalive_interval_ms = 25, .keepalive_timeout_ms = 250});
  auto client = harness.client();
  (void)client.subscribe({});
  EXPECT_TRUE(eventually([&] { return harness.service.subscription_count() == 1; }));

  std::jthread publisher([&] {  // joins even when next_event() throws
    std::this_thread::sleep_for(800ms);
    harness.flip_epochs();
  });
  const auto event = client.next_event();
  publisher.join();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->delta.epoch, 0u);
  EXPECT_GE(harness.counted(obs::metrics().net_keepalive_probes), 2u);
  EXPECT_EQ(harness.counted(obs::metrics().net_keepalive_disconnects), 0u);
  EXPECT_EQ(harness.server.connection_count(), 1u);
}

// ------------------------------------------------- overload shedding --

TEST(NetProtocol, RateLimitedRequestIsShedAsBusyWithARetryHint) {
  Harness harness(
      {.max_requests_per_sec = 1, .request_burst = 1, .busy_retry_after_ms = 250});
  (void)harness.service.ingest({tuple(10, 20, true)});
  auto conn = harness.listener->connect();
  FrameBuffer frames;
  (void)hello(*conn, frames);

  // The bucket holds exactly one token: the first request is answered, the
  // immediate second is shed — structurally, with the retry-after hint and
  // the request id so the client can fail just that call.
  ASSERT_TRUE(conn->write_all(api::encode_request({1, {.kind = api::QueryKind::kStats}})));
  ASSERT_TRUE(conn->write_all(api::encode_request({2, {.kind = api::QueryKind::kStats}})));
  EXPECT_EQ(api::decode_response(next_frame(*conn, frames)).request_id, 1u);
  const auto busy_frame = next_frame(*conn, frames);
  ASSERT_FALSE(busy_frame.empty());
  ASSERT_EQ(api::peek_frame_type(busy_frame), api::FrameType::kBusy);
  const auto busy = api::decode_busy(busy_frame);
  EXPECT_EQ(busy.request_id, 2u);
  EXPECT_EQ(busy.retry_after_ms, 250u);
  EXPECT_EQ(harness.counted(obs::metrics().net_requests_shed), 1u);

  // The shed is request-scoped: the connection still answers pings.
  ASSERT_TRUE(conn->write_all(api::encode_ping({3})));
  EXPECT_EQ(api::peek_frame_type(next_frame(*conn, frames)), api::FrameType::kPong);
}

// ---------------------------------------------------- resume coverage --

TEST(NetProtocol, ResumeAckConfirmsCoverageWhenTheLogStillHoldsTheEpoch) {
  Harness harness;
  harness.flip_epochs();  // epochs 0 and 1 retained
  auto conn = harness.listener->connect();
  FrameBuffer frames;
  (void)hello(*conn, frames);
  ASSERT_TRUE(conn->write_all(api::encode_subscribe({1, {}, 0})));

  // Replayed events are enqueued ahead of the ack (see the server's
  // subscribe path); both epochs arrive, then the ack confirms coverage.
  for (stream::Epoch e = 0; e <= 1; ++e) {
    const auto frame = next_frame(*conn, frames);
    ASSERT_EQ(api::peek_frame_type(frame), api::FrameType::kEvent);
    EXPECT_EQ(api::decode_event(frame).delta.epoch, e);
  }
  const auto ack = api::decode_subscribed(next_frame(*conn, frames));
  EXPECT_EQ(ack.request_id, 1u);
  EXPECT_TRUE(ack.replay_complete);
}

TEST(NetProtocol, ResumeAckFlagsAMissedHorizonAtomicallyWithTheReplay) {
  // Tiny retention: four published epochs against a two-batch log. A resume
  // from epoch 0 can only replay the surviving tail, and the ack must say so
  // — computed under the same lock as the replay, so no publish can race.
  api::Service service({.stream = {.window_epochs = 1}, .event_log_capacity = 2});
  auto listener = std::make_shared<LoopbackListener>();
  Server server(service, listener, {});
  server.start();

  for (stream::Epoch e = 0; e < 4; ++e) {
    if (e > 0) (void)service.advance_epoch();
    (void)service.ingest({tuple(100 + static_cast<bgp::Asn>(e), 20, true)});
    (void)service.publish();
  }

  auto conn = listener->connect();
  FrameBuffer frames;
  const auto welcome = hello(*conn, frames);
  ASSERT_TRUE(welcome.replay_horizon.has_value());
  EXPECT_EQ(*welcome.replay_horizon, 2u);

  ASSERT_TRUE(conn->write_all(api::encode_subscribe({1, {}, 0})));
  for (stream::Epoch e = 2; e <= 3; ++e) {
    const auto frame = next_frame(*conn, frames);
    ASSERT_EQ(api::peek_frame_type(frame), api::FrameType::kEvent);
    EXPECT_EQ(api::decode_event(frame).delta.epoch, e) << "lossy tail starts at the horizon";
  }
  const auto ack = api::decode_subscribed(next_frame(*conn, frames));
  EXPECT_FALSE(ack.replay_complete) << "the log no longer covered epoch 0";
  server.stop();
}

}  // namespace
}  // namespace bgpcu::net
