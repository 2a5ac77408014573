// Wire-format tests: randomized round-trip properties (encode -> decode is
// bit-identical, including the re-encoded bytes and the text-DB
// serialization of the decoded result), golden binary fixtures checked into
// tests/data/ (which pin the v1 byte layout — regenerate only on a
// deliberate format bump via BGPCU_REGEN_GOLDEN=1), and corrupted-input
// behavior: truncation at every prefix, bad magic, future versions, and
// byte flips must throw WireFormatError (or decode cleanly), never crash.
#include "api/wire.h"

#include <gtest/gtest.h>

#include <memory>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string_view>

#include "core/database.h"
#include "obs/metrics.h"
#include "topology/rng.h"

namespace bgpcu::api {
namespace {

namespace fs = std::filesystem;

fs::path data_dir() { return fs::path(BGPCU_TEST_DATA_DIR); }

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in) << "missing fixture " << path;
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::uint8_t> bytes(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
  return bytes;
}

core::InferenceResult random_result(topology::Rng& rng) {
  core::CounterMap counters;
  const std::size_t count = rng.below(200);
  for (std::size_t i = 0; i < count; ++i) {
    // Mix of dense low ASNs and 32-bit ones; counter magnitudes spanning the
    // varint length classes up to multi-byte 64-bit values.
    const bgp::Asn asn = rng.chance(0.2)
                             ? 0xF0000000u + static_cast<bgp::Asn>(rng.below(1 << 16))
                             : static_cast<bgp::Asn>(rng.below(100000));
    core::UsageCounters k;
    k.t = rng.chance(0.8) ? rng.below(1u << 14) : 0;
    k.s = rng.chance(0.3) ? (1ull << 40) + rng.below(1 << 20) : rng.below(128);
    k.f = rng.below(1u << 10);
    k.c = rng.below(2) == 0 ? 0 : rng.below(1u << 30);
    counters[asn] = k;
  }
  const auto th = core::Thresholds{0.5 + rng.below(50) / 100.0, 0.5 + rng.below(50) / 100.0,
                                   0.5 + rng.below(50) / 100.0, 0.5 + rng.below(50) / 100.0};
  return core::InferenceResult(std::move(counters), th, rng.below(8));
}

core::UsageClass class_of(unsigned tagging, unsigned forwarding) {
  return {static_cast<core::TaggingClass>(tagging),
          static_cast<core::ForwardingClass>(forwarding)};
}

EpochDelta random_delta(topology::Rng& rng) {
  EpochDelta delta;
  delta.epoch = rng.below(1u << 20);
  const std::size_t count = rng.below(100);
  std::uint64_t asn = 0;
  for (std::size_t i = 0; i < count; ++i) {
    asn += 1 + rng.below(1 << 20);  // strictly ascending, as diff emits them
    if (asn > 0xFFFFFFFFull) break;
    stream::ClassChange change;
    change.asn = static_cast<bgp::Asn>(asn);
    change.before = class_of(rng.below(4), rng.below(4));
    change.after = class_of(rng.below(4), rng.below(4));
    delta.changes.push_back(change);
  }
  return delta;
}

std::string text_db(const core::InferenceResult& result) {
  std::stringstream out;
  core::write_database(out, result);
  return out.str();
}

// ------------------------------------------------------------ round trips --

TEST(WireRoundTrip, RandomSnapshotsSurviveBitIdentically) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    topology::Rng rng(seed);
    const auto original = random_result(rng);
    const auto frame = encode_snapshot(original);
    const auto decoded = decode_snapshot(frame);

    EXPECT_EQ(decoded.counter_map(), original.counter_map()) << "seed " << seed;
    EXPECT_EQ(decoded.columns_swept(), original.columns_swept());
    EXPECT_EQ(decoded.thresholds().tagger, original.thresholds().tagger);
    EXPECT_EQ(decoded.thresholds().cleaner, original.thresholds().cleaner);
    // Bit-identical: re-encoding the decoded result reproduces the frame.
    EXPECT_EQ(encode_snapshot(decoded), frame) << "seed " << seed;
    // Acceptance contract: the decoded result's text-DB serialization is
    // byte-identical to the original's.
    EXPECT_EQ(text_db(decoded), text_db(original)) << "seed " << seed;
  }
}

TEST(WireRoundTrip, RandomDeltaBatchesSurviveBitIdentically) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    topology::Rng rng(seed * 31 + 7);
    const auto original = random_delta(rng);
    const auto frame = encode_delta_batch(original);
    const auto decoded = decode_delta_batch(frame);
    EXPECT_EQ(decoded, original) << "seed " << seed;
    EXPECT_EQ(encode_delta_batch(decoded), frame) << "seed " << seed;
  }
}

TEST(WireRoundTrip, EmptySnapshotAndDelta) {
  const core::InferenceResult empty({}, core::Thresholds{}, 0);
  const auto decoded = decode_snapshot(encode_snapshot(empty));
  EXPECT_TRUE(decoded.counter_map().empty());
  EXPECT_EQ(text_db(decoded), text_db(empty));

  const EpochDelta none{7, {}};
  EXPECT_EQ(decode_delta_batch(encode_delta_batch(none)), none);
}

TEST(WireRoundTrip, QueryRequests) {
  for (const auto kind : {QueryKind::kClassOf, QueryKind::kSnapshot,
                          QueryKind::kLiveCounters, QueryKind::kStats,
                          QueryKind::kMetrics}) {
    QueryRequest request{kind, 4200000001u};
    const auto decoded = decode_query_request(encode_query_request(request));
    EXPECT_EQ(decoded.kind, kind);
    if (kind == QueryKind::kClassOf || kind == QueryKind::kLiveCounters) {
      EXPECT_EQ(decoded.asn, 4200000001u);
    }
  }
}

TEST(WireRoundTrip, QueryResponses) {
  QueryResponse per_asn;
  per_asn.kind = QueryKind::kClassOf;
  per_asn.asn_class = AsnClass{3356, class_of(1, 1), {1042, 3, 977, 0}};
  auto decoded = decode_query_response(encode_query_response(per_asn));
  EXPECT_EQ(decoded.asn_class, per_asn.asn_class);

  QueryResponse stats;
  stats.kind = QueryKind::kStats;
  // All thirteen fields nonzero, so a dropped/reordered varint cannot
  // round-trip clean (the snapshot-path fields rode in after PR 4).
  stats.stats = ServiceStats{12,  168000, 42,  8,      3,       2,      57,
                             900, 12345,  6,   1,      271828,  3141592};
  decoded = decode_query_response(encode_query_response(stats));
  EXPECT_EQ(decoded.stats, stats.stats);

  topology::Rng rng(99);
  QueryResponse snap;
  snap.kind = QueryKind::kSnapshot;
  snap.snapshot = std::make_shared<const core::InferenceResult>(random_result(rng));
  decoded = decode_query_response(encode_query_response(snap));
  ASSERT_TRUE(decoded.snapshot != nullptr);
  EXPECT_EQ(decoded.snapshot->counter_map(), snap.snapshot->counter_map());
}

TEST(WireRoundTrip, FrameReaderSplitsConcatenatedFrames) {
  topology::Rng rng(5);
  const auto snapshot = random_result(rng);
  const auto delta = random_delta(rng);
  auto log = encode_snapshot(snapshot);
  const auto delta_frame = encode_delta_batch(delta);
  log.insert(log.end(), delta_frame.begin(), delta_frame.end());

  FrameReader frames(log);
  const auto first = frames.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, FrameType::kSnapshot);
  const auto second = frames.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, FrameType::kDeltaBatch);
  EXPECT_FALSE(frames.next().has_value());
  EXPECT_EQ(first->size + second->size, log.size());
}

// ---------------------------------------------------------------- goldens --

/// The pinned v1 sample artifacts. Changing the wire layout breaks these
/// fixtures on purpose: bump kWireVersion and regenerate deliberately.
core::InferenceResult golden_snapshot() {
  core::CounterMap counters;
  counters[1299] = {0, 500, 0, 120};
  counters[3356] = {1042, 3, 977, 0};
  counters[13335] = {10, 1, 0, 0};
  counters[4200000001u] = {7, 0, 0, 0};
  return core::InferenceResult(std::move(counters),
                               core::Thresholds{0.99, 0.98, 0.97, 0.96}, 5);
}

EpochDelta golden_delta() {
  EpochDelta delta;
  delta.epoch = 42;
  delta.changes.push_back({3356, class_of(1, 1), class_of(1, 2)});         // tf->tc
  delta.changes.push_back({65000, class_of(0, 0), class_of(1, 1)});        // nn->tf
  delta.changes.push_back({4200000001u, class_of(3, 0), class_of(0, 0)});  // un->nn
  return delta;
}

/// The pinned metrics scrape: one family of every metric type, labeled and
/// unlabeled series, a fractional gauge (collector output), a histogram with
/// empty buckets.
obs::Snapshot golden_metrics() {
  obs::Snapshot snapshot;
  obs::Family queries;
  queries.name = "bgpcu_api_queries_total";
  queries.help = "Service queries answered by kind";
  queries.type = obs::MetricType::kCounter;
  queries.series.push_back({"kind=\"snapshot\"", 3, std::nullopt});
  queries.series.push_back({"kind=\"stats\"", 12, std::nullopt});
  snapshot.push_back(std::move(queries));

  obs::Family live;
  live.name = "bgpcu_stream_live_tuples";
  live.help = "Live unique tuples across shards";
  live.type = obs::MetricType::kGauge;
  live.series.push_back({"", 168036.5, std::nullopt});
  snapshot.push_back(std::move(live));

  obs::Family locked;
  locked.name = "bgpcu_snapshot_locked_ns";
  locked.help = "Locked-phase time per sweep";
  locked.type = obs::MetricType::kHistogram;
  obs::HistogramData hist;
  hist.buckets = {0, 1, 2, 0, 5};
  hist.count = 8;
  hist.sum = 31415;
  locked.series.push_back({"", 0, std::move(hist)});
  snapshot.push_back(std::move(locked));
  return snapshot;
}

std::vector<std::uint8_t> encode_golden_metrics_response() {
  QueryResponse response;
  response.kind = QueryKind::kMetrics;
  response.metrics = golden_metrics();
  return encode_query_response(response);
}

TEST(WireRoundTrip, MetricsResponseSurvives) {
  const auto decoded = decode_query_response(encode_golden_metrics_response());
  EXPECT_EQ(decoded.kind, QueryKind::kMetrics);
  ASSERT_TRUE(decoded.metrics.has_value());
  EXPECT_EQ(*decoded.metrics, golden_metrics());
}

TEST(WireRoundTrip, EmptyMetricsResponseSurvives) {
  QueryResponse response;
  response.kind = QueryKind::kMetrics;
  response.metrics = obs::Snapshot{};
  const auto decoded = decode_query_response(encode_query_response(response));
  ASSERT_TRUE(decoded.metrics.has_value());
  EXPECT_TRUE(decoded.metrics->empty());
}

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << "cannot write fixture " << path;
}

TEST(WireGolden, SnapshotFixtureIsStable) {
  const auto path = data_dir() / "golden_snapshot_v1.wire";
  const auto expected = encode_snapshot(golden_snapshot());
  if (std::getenv("BGPCU_REGEN_GOLDEN")) write_bytes(path, expected);
  const auto fixture = read_bytes(path);
  EXPECT_EQ(fixture, expected) << "v1 snapshot encoding drifted from the checked-in bytes";
  const auto decoded = decode_snapshot(fixture);
  EXPECT_EQ(decoded.counter_map(), golden_snapshot().counter_map());
  EXPECT_EQ(decoded.columns_swept(), 5u);
  EXPECT_EQ(decoded.thresholds().silent, 0.98);
}

TEST(WireGolden, DeltaFixtureIsStable) {
  const auto path = data_dir() / "golden_delta_v1.wire";
  const auto expected = encode_delta_batch(golden_delta());
  if (std::getenv("BGPCU_REGEN_GOLDEN")) write_bytes(path, expected);
  const auto fixture = read_bytes(path);
  EXPECT_EQ(fixture, expected) << "v1 delta encoding drifted from the checked-in bytes";
  EXPECT_EQ(decode_delta_batch(fixture), golden_delta());
}

TEST(WireGolden, MetricsFixtureIsStable) {
  const auto path = data_dir() / "golden_metrics_v1.wire";
  const auto expected = encode_golden_metrics_response();
  if (std::getenv("BGPCU_REGEN_GOLDEN")) write_bytes(path, expected);
  const auto fixture = read_bytes(path);
  EXPECT_EQ(fixture, expected) << "v1 metrics encoding drifted from the checked-in bytes";
  const auto decoded = decode_query_response(fixture);
  ASSERT_TRUE(decoded.metrics.has_value());
  EXPECT_EQ(*decoded.metrics, golden_metrics());
}

// ------------------------------------------------------------- corruption --

TEST(WireCorruption, EveryTruncationThrows) {
  const auto frame = encode_snapshot(golden_snapshot());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_snapshot(cut), WireFormatError) << "prefix " << len;
  }
  const auto delta_frame = encode_delta_batch(golden_delta());
  for (std::size_t len = 0; len < delta_frame.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        delta_frame.begin(), delta_frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_delta_batch(cut), WireFormatError) << "prefix " << len;
  }
  const auto metrics_frame = encode_golden_metrics_response();
  for (std::size_t len = 0; len < metrics_frame.size(); ++len) {
    const std::vector<std::uint8_t> cut(
        metrics_frame.begin(), metrics_frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)decode_query_response(cut), WireFormatError) << "prefix " << len;
  }
}

TEST(WireCorruption, BadMagicThrows) {
  auto frame = encode_snapshot(golden_snapshot());
  frame[0] = 'X';
  EXPECT_THROW((void)decode_snapshot(frame), WireFormatError);
  const std::vector<std::uint8_t> text = {'#', ' ', 'b', 'g', 'p', 'c', 'u'};
  EXPECT_THROW((void)decode_snapshot(text), WireFormatError);
}

TEST(WireCorruption, FutureVersionThrows) {
  auto frame = encode_snapshot(golden_snapshot());
  frame[4] = kWireVersion + 1;
  try {
    (void)decode_snapshot(frame);
    FAIL() << "future version accepted";
  } catch (const WireFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported wire version"), std::string::npos);
  }
  frame[4] = 0;
  EXPECT_THROW((void)decode_snapshot(frame), WireFormatError);
}

TEST(WireCorruption, WrongTypeAndTrailingGarbageThrow) {
  const auto snapshot_frame = encode_snapshot(golden_snapshot());
  EXPECT_THROW((void)decode_delta_batch(snapshot_frame), WireFormatError);

  auto padded = snapshot_frame;
  padded.push_back(0);
  EXPECT_THROW((void)decode_snapshot(padded), WireFormatError);

  auto bad_type = snapshot_frame;
  bad_type[5] = 9;
  EXPECT_THROW((void)decode_snapshot(bad_type), WireFormatError);
}

TEST(WireCorruption, ByteFlipsNeverCrash) {
  const auto frame = encode_snapshot(golden_snapshot());
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    for (const std::uint8_t flip : {0xFFu, 0x80u, 0x01u}) {
      auto mutated = frame;
      mutated[pos] ^= flip;
      try {
        (void)decode_snapshot(mutated);  // either outcome is fine; no UB
      } catch (const WireFormatError&) {
      }
    }
  }
  const auto delta_frame = encode_delta_batch(golden_delta());
  for (std::size_t pos = 0; pos < delta_frame.size(); ++pos) {
    auto mutated = delta_frame;
    mutated[pos] ^= 0xFF;
    try {
      (void)decode_delta_batch(mutated);
    } catch (const WireFormatError&) {
    }
  }
  const auto metrics_frame = encode_golden_metrics_response();
  for (std::size_t pos = 0; pos < metrics_frame.size(); ++pos) {
    for (const std::uint8_t flip : {0xFFu, 0x80u, 0x01u}) {
      auto mutated = metrics_frame;
      mutated[pos] ^= flip;
      try {
        (void)decode_query_response(mutated);
      } catch (const WireFormatError&) {
      }
    }
  }
}

TEST(WireRoundTrip, EncodingUnsortedDeltaFailsFast) {
  // Misuse must fail at encode time, not poison a log that every later
  // decode rejects.
  EpochDelta dup{1, {{10, {}, {}}, {10, {}, {}}}};
  EXPECT_THROW((void)encode_delta_batch(dup), WireFormatError);
  EpochDelta unsorted{1, {{20, {}, {}}, {10, {}, {}}}};
  EXPECT_THROW((void)encode_delta_batch(unsorted), WireFormatError);
}

TEST(WireCorruption, OversizedVarintAndBadClassByteThrow) {
  // A frame whose payload length varint never terminates.
  std::vector<std::uint8_t> frame(kWireMagic.begin(), kWireMagic.end());
  frame.push_back(kWireVersion);
  frame.push_back(1);  // snapshot
  for (int i = 0; i < 11; ++i) frame.push_back(0xFF);
  EXPECT_THROW((void)decode_snapshot(frame), WireFormatError);

  // Delta change with an out-of-range class nibble.
  auto delta = golden_delta();
  auto good = encode_delta_batch(delta);
  // The first change's class bytes are the last two bytes of its record;
  // corrupt via a high nibble > 3 at the known 'before' byte position.
  bool threw = false;
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    auto mutated = good;
    mutated[pos] = 0x77;  // tagging=7, forwarding=7: invalid on any class byte
    try {
      const auto decoded = decode_delta_batch(mutated);
      (void)decoded;
    } catch (const WireFormatError&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
}

// -------------------------------------------------- protocol frame codecs --

/// A protocol-v2 feature-negotiating hello: the v3 hello layout (same frame
/// type 15) plus a trailing feature-bits varint.
std::vector<std::uint8_t> v2_feature_hello(std::uint8_t protocol) {
  auto frame = encode_hello({protocol, ""});
  frame.push_back(0x07);  // the v2 client's "all features" bits
  ++frame[6];             // one-byte payload length field
  return frame;
}

TEST(WireProtocolFrames, HelloWelcomeErrorRoundTrip) {
  const HelloFrame hello{kProtocolVersion, "s3cr3t-token"};
  EXPECT_EQ(decode_hello(encode_hello(hello)), hello);
  EXPECT_EQ(peek_hello_protocol(encode_hello(hello)), kProtocolVersion);
  const HelloFrame anonymous{kProtocolVersion, ""};
  EXPECT_EQ(decode_hello(encode_hello(anonymous)), anonymous);

  const WelcomeFrame welcome{kProtocolVersion, 918273, 918270};
  EXPECT_EQ(decode_welcome(encode_welcome(welcome)), welcome);

  const ErrorFrame error{42, ErrorCode::kAuthFailed, "bad token"};
  EXPECT_EQ(decode_error(encode_error(error)), error);
  // Error code 4 (the pre-v3 server-busy code) is retired and no longer decodes.
  auto retired = encode_error({42, ErrorCode::kBadRequest, ""});
  ASSERT_EQ(retired[8], static_cast<std::uint8_t>(ErrorCode::kBadRequest));
  retired[8] = 4;  // header (6) + payload length (1) + request id (1)
  EXPECT_THROW((void)decode_error(retired), WireFormatError);
}

TEST(WireProtocolFrames, SubscribeRoundTripCoversFilterShapes) {
  SubscribeFrame plain{7, {}, std::nullopt};
  EXPECT_EQ(decode_subscribe(encode_subscribe(plain)), plain);

  SubscribeFrame full;
  full.request_id = 8;
  full.filter.watch = {3356, 1299, 13335};  // order is semantic; preserved
  full.filter.from = "tf";
  full.filter.to = "*";
  full.replay_from = 12;
  EXPECT_EQ(decode_subscribe(encode_subscribe(full)), full);
}

TEST(WireProtocolFrames, SubscribeRejectsBadCodeSpecs) {
  SubscribeFrame bad;
  bad.filter.from = "xx";
  EXPECT_THROW((void)encode_subscribe(bad), WireFormatError);

  auto frame = encode_subscribe({1, {}, std::nullopt});
  // The from-code tag byte follows request id (1) + watch count (1) in the
  // payload; find it by decoding at every mutated position instead of
  // hard-coding the offset.
  bool rejected_some_mutation = false;
  for (std::size_t pos = 6; pos < frame.size(); ++pos) {
    auto mutated = frame;
    mutated[pos] = 0x2A;
    try {
      (void)decode_subscribe(mutated);
    } catch (const WireFormatError&) {
      rejected_some_mutation = true;
    }
  }
  EXPECT_TRUE(rejected_some_mutation);
}

TEST(WireProtocolFrames, WatchlistCapIsEnforcedBothWays) {
  SubscribeFrame huge;
  huge.filter.watch.assign(kMaxSubscriptionWatch + 1, 1);
  EXPECT_THROW((void)encode_subscribe(huge), WireFormatError);

  // A well-formed frame *claiming* a ~268M-entry watchlist must be rejected
  // by the count check itself, before any allocation proportional to the
  // claim (and before the missing entries would read as truncation).
  const std::vector<std::uint8_t> payload = {
      0x01,                    // request id varint
      0xFF, 0xFF, 0xFF, 0x7F,  // watch count varint: 268435455
  };
  std::vector<std::uint8_t> crafted(kWireMagic.begin(), kWireMagic.end());
  crafted.reserve(crafted.size() + 3 + payload.size());  // version, type, length, payload
  crafted.push_back(kWireVersion);
  crafted.push_back(static_cast<std::uint8_t>(FrameType::kSubscribe));
  crafted.push_back(static_cast<std::uint8_t>(payload.size()));
  crafted.insert(crafted.end(), payload.begin(), payload.end());
  try {
    (void)decode_subscribe(crafted);
    FAIL() << "inflated watchlist claim accepted";
  } catch (const WireFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("watchlist"), std::string::npos) << e.what();
  }
}

TEST(WireProtocolFrames, SubscriptionLifecycleFramesRoundTrip) {
  const SubscribedFrame ack{5, 77};
  EXPECT_EQ(decode_subscribed(encode_subscribed(ack)), ack);
  EXPECT_EQ(decode_subscribed(encode_subscribed(ack, FrameType::kUnsubscribed),
                              FrameType::kUnsubscribed),
            ack);
  // Ack frames of the wrong flavor don't cross-decode.
  EXPECT_THROW((void)decode_subscribed(encode_subscribed(ack, FrameType::kUnsubscribed)),
               WireFormatError);

  const UnsubscribeFrame unsubscribe{6, 77};
  EXPECT_EQ(decode_unsubscribe(encode_unsubscribe(unsubscribe)), unsubscribe);
}

TEST(WireProtocolFrames, EventRequestResponseRoundTrip) {
  topology::Rng rng(11);
  const EventFrame event{31, random_delta(rng)};
  EXPECT_EQ(decode_event(encode_event(event)), event);

  const RequestFrame request{9, {QueryKind::kClassOf, 3356}};
  const auto decoded_request = decode_request(encode_request(request));
  EXPECT_EQ(decoded_request.request_id, 9u);
  EXPECT_EQ(decoded_request.request, request.request);

  ResponseFrame response;
  response.request_id = 9;
  response.response.kind = QueryKind::kClassOf;
  response.response.asn_class = AsnClass{3356, class_of(1, 2), {10, 2, 8, 0}};
  const auto decoded_response = decode_response(encode_response(response));
  EXPECT_EQ(decoded_response.request_id, 9u);
  EXPECT_EQ(decoded_response.response.asn_class, response.response.asn_class);

  ResponseFrame snap;
  snap.request_id = 10;
  snap.response.kind = QueryKind::kSnapshot;
  snap.response.snapshot = std::make_shared<const core::InferenceResult>(random_result(rng));
  const auto decoded_snap = decode_response(encode_response(snap));
  ASSERT_TRUE(decoded_snap.response.snapshot != nullptr);
  EXPECT_EQ(decoded_snap.response.snapshot->counter_map(),
            snap.response.snapshot->counter_map());
}

TEST(WireProtocolFrames, ReliabilityHandshakeFramesRoundTrip) {
  // A server that never published advertises no horizon; the nullopt must
  // be distinguishable from horizon 0.
  WelcomeFrame fresh;
  EXPECT_EQ(decode_welcome(encode_welcome(fresh)), fresh);
  WelcomeFrame zero;
  zero.replay_horizon = 0;
  EXPECT_EQ(decode_welcome(encode_welcome(zero)), zero);
  EXPECT_NE(decode_welcome(encode_welcome(zero)).replay_horizon,
            decode_welcome(encode_welcome(fresh)).replay_horizon);

  // The v2 feature-negotiating hello shares frame type 15 with the v3
  // hello. Its protocol byte still reads, which is how the server refuses
  // it by name, but its feature bits are trailing garbage to the v3 decoder.
  const auto v2_hello = v2_feature_hello(2);
  EXPECT_EQ(peek_hello_protocol(v2_hello), 2u);
  EXPECT_THROW((void)decode_hello(v2_hello), WireFormatError);

  // The retired pre-v3 hello/welcome types (5, 6) do not frame at all.
  for (const std::uint8_t retired : {5, 6}) {
    auto frame = encode_hello({kProtocolVersion, ""});
    frame[5] = retired;
    EXPECT_THROW((void)peek_frame_type(frame), WireFormatError) << int{retired};
    EXPECT_THROW((void)try_parse_frame(frame), WireFormatError) << int{retired};
  }
}

TEST(WireProtocolFrames, KeepaliveAndBusyFramesRoundTrip) {
  const PingFrame probe{0xDEADBEEFCAFEull};
  EXPECT_EQ(decode_ping(encode_ping(probe)), probe);
  EXPECT_EQ(decode_ping(encode_ping(probe, FrameType::kPong), FrameType::kPong), probe);
  // Probe and reply don't cross-decode, like the subscribe ack flavors.
  EXPECT_THROW((void)decode_ping(encode_ping(probe, FrameType::kPong)), WireFormatError);

  const BusyFrame shed{42, 250, "request rate limit exceeded"};
  EXPECT_EQ(decode_busy(encode_busy(shed)), shed);
  const BusyFrame connection_level{0, 1000, "connection limit reached"};
  EXPECT_EQ(decode_busy(encode_busy(connection_level)), connection_level);
}

TEST(WireProtocolFrames, SubscribeAckCoverageByteIsAdditive) {
  // Both coverage answers survive a trip and are distinct on the wire.
  const SubscribedFrame covered{5, 77, true};
  const SubscribedFrame missed{5, 77, false};
  for (const auto& ack : {covered, missed}) {
    EXPECT_EQ(decode_subscribed(encode_subscribed(ack)), ack);
  }
  EXPECT_NE(encode_subscribed(covered), encode_subscribed(missed));
  // Every subscribe ack carries the flag as one byte after the fields it
  // shares with the unsubscribe ack, which never carries it.
  const auto with_byte = encode_subscribed(missed);
  const auto without = encode_subscribed(missed, FrameType::kUnsubscribed);
  EXPECT_EQ(with_byte.size(), without.size() + 1);
  const auto unsubscribed = decode_subscribed(without, FrameType::kUnsubscribed);
  EXPECT_EQ(unsubscribed.request_id, missed.request_id);
  EXPECT_EQ(unsubscribed.subscription_id, missed.subscription_id);
  // So a subscribe ack without the byte is truncated, and an unsubscribe
  // ack with it has trailing garbage.
  auto short_ack = without;
  short_ack[5] = static_cast<std::uint8_t>(FrameType::kSubscribed);
  EXPECT_THROW((void)decode_subscribed(short_ack), WireFormatError);
  auto long_ack = with_byte;
  long_ack[5] = static_cast<std::uint8_t>(FrameType::kUnsubscribed);
  EXPECT_THROW((void)decode_subscribed(long_ack, FrameType::kUnsubscribed), WireFormatError);
}

// ------------------------------------------------------------- fuzz sweep --

/// Structured fuzz over every frame codec: seed-driven random mutations of
/// valid frames (byte flips, truncations at every boundary, length-field
/// inflation, splices) must either decode cleanly or throw WireFormatError —
/// never crash, never over-read (ASan holds that half of the contract).
namespace fuzz {

using DecodeFn = void (*)(std::span<const std::uint8_t>);

struct Corpus {
  const char* name;
  std::vector<std::uint8_t> frame;
  DecodeFn decode;
};

std::vector<Corpus> build_corpus(topology::Rng& rng) {
  std::vector<Corpus> corpus;
  corpus.push_back({"snapshot", encode_snapshot(random_result(rng)),
                    +[](std::span<const std::uint8_t> b) { (void)decode_snapshot(b); }});
  corpus.push_back({"delta", encode_delta_batch(random_delta(rng)),
                    +[](std::span<const std::uint8_t> b) { (void)decode_delta_batch(b); }});
  corpus.push_back({"query-request", encode_query_request({QueryKind::kClassOf, 65550}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_query_request(b); }});
  QueryResponse stats_response;
  stats_response.kind = QueryKind::kStats;
  stats_response.stats = ServiceStats{3, 1000, 5, 8, 2, 1};
  corpus.push_back({"query-response", encode_query_response(stats_response),
                    +[](std::span<const std::uint8_t> b) { (void)decode_query_response(b); }});
  corpus.push_back({"query-response-metrics", encode_golden_metrics_response(),
                    +[](std::span<const std::uint8_t> b) { (void)decode_query_response(b); }});
  corpus.push_back({"hello", encode_hello({kProtocolVersion, "fuzz-token"}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_hello(b); }});
  corpus.push_back({"welcome", encode_welcome({kProtocolVersion, 99, 42}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_welcome(b); }});
  corpus.push_back({"error", encode_error({1, ErrorCode::kBadRequest, "nope"}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_error(b); }});
  SubscribeFrame subscribe{2, {}, 5};
  subscribe.filter.watch = {15169, 8075};
  subscribe.filter.from = "tn";
  corpus.push_back({"subscribe", encode_subscribe(subscribe),
                    +[](std::span<const std::uint8_t> b) { (void)decode_subscribe(b); }});
  corpus.push_back({"subscribed", encode_subscribed({2, 4, false}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_subscribed(b); }});
  corpus.push_back({"unsubscribed", encode_subscribed({3, 4}, FrameType::kUnsubscribed),
                    +[](std::span<const std::uint8_t> b) {
                      (void)decode_subscribed(b, FrameType::kUnsubscribed);
                    }});
  corpus.push_back({"unsubscribe", encode_unsubscribe({3, 4}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_unsubscribe(b); }});
  topology::Rng delta_rng(rng.below(1u << 30) + 1);
  corpus.push_back({"event", encode_event({6, random_delta(delta_rng)}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_event(b); }});
  corpus.push_back({"request", encode_request({7, {QueryKind::kLiveCounters, 64512}}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_request(b); }});
  ResponseFrame tagged;
  tagged.request_id = 8;
  tagged.response.kind = QueryKind::kStats;
  tagged.response.stats = ServiceStats{};
  corpus.push_back({"response", encode_response(tagged),
                    +[](std::span<const std::uint8_t> b) { (void)decode_response(b); }});
  corpus.push_back({"ping", encode_ping({0x1234567890ABCDEFull}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_ping(b); }});
  corpus.push_back({"pong", encode_ping({7}, FrameType::kPong),
                    +[](std::span<const std::uint8_t> b) {
                      (void)decode_ping(b, FrameType::kPong);
                    }});
  corpus.push_back({"busy", encode_busy({9, 500, "overloaded"}),
                    +[](std::span<const std::uint8_t> b) { (void)decode_busy(b); }});
  return corpus;
}

/// Applies one seed-selected mutation; returns the mutated frame.
std::vector<std::uint8_t> mutate(const std::vector<std::uint8_t>& frame, topology::Rng& rng) {
  auto mutated = frame;
  switch (rng.below(5)) {
    case 0: {  // random byte flips, 1..8 of them
      const auto flips = 1 + rng.below(8);
      for (std::uint64_t i = 0; i < flips && !mutated.empty(); ++i) {
        mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      break;
    }
    case 1:  // truncate at a random boundary
      mutated.resize(rng.below(mutated.size() + 1));
      break;
    case 2: {  // inflate the payload-length varint region
      if (mutated.size() > 6) {
        mutated[6] |= 0x80;  // claims more length bytes / larger payload
        mutated.insert(mutated.begin() + 7, static_cast<std::uint8_t>(1 + rng.below(127)));
      }
      break;
    }
    case 3: {  // splice a random chunk out of the middle
      if (mutated.size() > 8) {
        const auto start = 1 + rng.below(mutated.size() - 2);
        const auto len = 1 + rng.below(mutated.size() - start);
        mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                      mutated.begin() + static_cast<std::ptrdiff_t>(start + len));
      }
      break;
    }
    default: {  // duplicate a chunk in place (grows counts/values)
      const auto start = rng.below(mutated.size());
      const auto len = 1 + rng.below(std::min<std::size_t>(16, mutated.size() - start));
      std::vector<std::uint8_t> chunk(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                                      mutated.begin() +
                                          static_cast<std::ptrdiff_t>(start + len));
      mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(start), chunk.begin(),
                     chunk.end());
      break;
    }
  }
  return mutated;
}

}  // namespace fuzz

TEST(WireFuzz, MutatedFramesAlwaysDecodeCleanlyOrThrow) {
  topology::Rng corpus_rng(1234);
  const auto corpus = fuzz::build_corpus(corpus_rng);
  for (const auto& entry : corpus) {
    // Sanity: the unmutated frame decodes.
    entry.decode(entry.frame);
    topology::Rng rng(std::hash<std::string_view>{}(entry.name));
    for (int round = 0; round < 400; ++round) {
      const auto mutated = fuzz::mutate(entry.frame, rng);
      try {
        entry.decode(mutated);
      } catch (const WireFormatError&) {
        // The only failure currency decoders are allowed.
      }
    }
  }
}

TEST(WireFuzz, TruncationAtEveryBoundaryThrowsForEveryFrameType) {
  topology::Rng corpus_rng(77);
  const auto corpus = fuzz::build_corpus(corpus_rng);
  for (const auto& entry : corpus) {
    for (std::size_t len = 0; len < entry.frame.size(); ++len) {
      const std::vector<std::uint8_t> cut(
          entry.frame.begin(), entry.frame.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_THROW(entry.decode(cut), WireFormatError)
          << entry.name << " prefix " << len;
    }
  }
}

TEST(WireFuzz, LengthFieldInflationNeverOverreads) {
  topology::Rng corpus_rng(99);
  const auto corpus = fuzz::build_corpus(corpus_rng);
  for (const auto& entry : corpus) {
    // Rewrite the payload-length varint to claim 1..+4096 extra bytes: the
    // decoder must diagnose truncation, not walk past the buffer (ASan
    // enforces the "never" half).
    for (const std::uint64_t extra : {1u, 2u, 127u, 128u, 4096u}) {
      auto inflated = std::vector<std::uint8_t>(entry.frame.begin(), entry.frame.begin() + 6);
      // Re-encode header + inflated length + original payload bytes.
      const auto parsed = try_parse_frame(entry.frame);
      ASSERT_TRUE(parsed.has_value());
      auto length = parsed->payload.size() + extra;
      while (length >= 0x80) {
        inflated.push_back(static_cast<std::uint8_t>(length) | 0x80);
        length >>= 7;
      }
      inflated.push_back(static_cast<std::uint8_t>(length));
      inflated.insert(inflated.end(), parsed->payload.begin(), parsed->payload.end());
      EXPECT_THROW(entry.decode(inflated), WireFormatError) << entry.name << " +" << extra;
    }
  }
}

TEST(WireFuzz, MutatedConcatenatedStreamsNeverCrashFrameReader) {
  topology::Rng corpus_rng(31337);
  const auto corpus = fuzz::build_corpus(corpus_rng);
  std::vector<std::uint8_t> log;
  for (const auto& entry : corpus) {
    log.insert(log.end(), entry.frame.begin(), entry.frame.end());
  }
  topology::Rng rng(5150);
  for (int round = 0; round < 200; ++round) {
    const auto mutated = fuzz::mutate(log, rng);
    try {
      FrameReader frames(mutated);
      while (frames.next().has_value()) {
      }
    } catch (const WireFormatError&) {
    }
  }
}

// ------------------------------------------------------------ file codecs --

TEST(WireCodecs, TextAndWireCodecsRoundTripFiles) {
  const auto dir = fs::temp_directory_path() / "bgpcu_wire_codec_test";
  fs::create_directories(dir);
  const auto result = golden_snapshot();

  for (const auto format : {Format::kText, Format::kWire}) {
    const auto codec = make_codec(format);
    const auto path = (dir / ("snap" + codec->extension())).string();
    codec->write_snapshot_file(path, result);
    EXPECT_EQ(sniff_format(path), format);
    const auto loaded = codec->read_snapshot_file(path);
    EXPECT_EQ(loaded.counter_map(), result.counter_map()) << codec->name();
    const auto sniffed = read_snapshot_any(path);
    EXPECT_EQ(sniffed.counter_map(), result.counter_map()) << codec->name();
  }
  fs::remove_all(dir);
}

TEST(WireCodecs, ParseFormatNames) {
  EXPECT_EQ(parse_format("text"), Format::kText);
  EXPECT_EQ(parse_format("wire"), Format::kWire);
  EXPECT_EQ(parse_format("json"), std::nullopt);
}

TEST(WireCodecs, ReadSnapshotAnyRejectsGarbage) {
  const auto dir = fs::temp_directory_path() / "bgpcu_wire_codec_test2";
  fs::create_directories(dir);
  const auto path = (dir / "junk.bin").string();
  std::ofstream(path, std::ios::binary) << "neither format";
  EXPECT_THROW((void)read_snapshot_any(path), std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace bgpcu::api
