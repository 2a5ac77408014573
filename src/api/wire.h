// Versioned binary wire format for the service artifacts: inference
// snapshots, epoch delta batches, and query request/response framing. The
// format is compact (varint-packed, delta-encoded ASNs), endian-stable
// (every multi-byte field has a defined byte order independent of the host),
// and versioned (a future-version frame is rejected loudly, never
// misparsed). Full layout spec: docs/WIRE_FORMAT.md.
//
// Every encoder returns a self-contained *frame* — magic, version, type,
// payload length, payload — so frames can be written to files, concatenated
// into logs, or sent over a socket unchanged. Every decoder is
// bounds-checked end to end: malformed input of any shape (truncation, bad
// magic, future version, trailing garbage, corrupt varints) throws
// WireFormatError and never crashes.
//
// The v1 text database (core/database.h) remains fully supported as a
// compatibility format behind the same Codec interface; `read_snapshot_any`
// sniffs the leading bytes and dispatches.
#ifndef BGPCU_API_WIRE_H
#define BGPCU_API_WIRE_H

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/service.h"
#include "core/engine.h"

namespace bgpcu::api {

/// Thrown on any structurally invalid wire input.
class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Frame magic: 0x89 "BCU" — the non-ASCII lead byte keeps text tools from
/// misidentifying wire files, PNG-style.
inline constexpr std::array<std::uint8_t, 4> kWireMagic = {0x89, 'B', 'C', 'U'};

/// Current (and only) format version. Decoders reject anything newer.
inline constexpr std::uint8_t kWireVersion = 1;

/// Current network *conversation* version, carried in hello/welcome and
/// matched exactly at the handshake. Distinct from kWireVersion: the
/// artifact frames (snapshot/delta files) are frozen per wire version
/// because files outlive processes, while live-connection frames may grow
/// fields between protocol versions — bumping this is what turns a
/// mixed-version client/server pair into a clean "unsupported protocol
/// version" handshake error instead of a mid-payload decode failure.
/// v2: the stats query response grew the snapshot-path fields.
/// v3: one handshake (kHello/kWelcome, types 15/16) with keepalive, kBusy
/// sheds and the subscribe-ack coverage byte always on; the v2 hello and
/// welcome (types 5/6), feature negotiation and the server-busy error code
/// are retired.
inline constexpr std::uint8_t kProtocolVersion = 3;

/// Record types carried in a frame header. Values are wire-stable. Types
/// 1-4 are the v1 artifact frames (files, logs); 7-19 are the network
/// protocol frames spoken between bgpcu_serve and its clients (see
/// docs/PROTOCOL.md). Types 5 and 6 (the pre-v3 hello/welcome) are
/// retired: never reused, and every decoder rejects them.
enum class FrameType : std::uint8_t {
  kSnapshot = 1,       ///< Full InferenceResult.
  kDeltaBatch = 2,     ///< One EpochDelta (epoch + class changes).
  kQueryRequest = 3,   ///< api::QueryRequest.
  kQueryResponse = 4,  ///< api::QueryResponse.
  kError = 7,          ///< Request-level or connection-level failure.
  kSubscribe = 8,      ///< Open a filtered class-change subscription.
  kSubscribed = 9,     ///< Subscription acknowledgment with its id.
  kEvent = 10,         ///< One pushed EpochDelta on a subscription.
  kRequest = 11,       ///< Pipelinable query: request id + QueryRequest.
  kResponse = 12,      ///< Answer to kRequest, matched by request id.
  kUnsubscribe = 13,   ///< Close one subscription by id.
  kUnsubscribed = 14,  ///< Unsubscribe acknowledgment.
  kHello = 15,         ///< Client handshake: protocol version + auth token.
  kWelcome = 16,       ///< Handshake accept: version + current epoch + horizon.
  kPing = 17,          ///< Keepalive probe (either direction).
  kPong = 18,          ///< Keepalive reply echoing the probe nonce.
  kBusy = 19,          ///< Structured overload shed with a retry-after hint.
};

/// Largest valid FrameType value; parse rejects anything above it.
inline constexpr std::uint8_t kMaxFrameType = 19;

/// Default cap on a single frame's payload. Generous enough for a full-table
/// snapshot; incremental parsers reject a length field claiming more, so a
/// corrupt (or hostile) length varint can never drive allocation.
inline constexpr std::size_t kMaxFramePayload = std::size_t{64} << 20;

/// Cap on a subscription filter's ASN watchlist. Every publish evaluates
/// every subscriber's filter, so a remote peer must not be able to install
/// an arbitrarily large one.
inline constexpr std::size_t kMaxSubscriptionWatch = 65536;

/// One decoded frame boundary inside a buffer. `payload` borrows the input.
struct Frame {
  FrameType type = FrameType::kSnapshot;
  std::span<const std::uint8_t> payload;
  std::size_t size = 0;  ///< Whole frame including header, for advancing.
};

/// Splits a buffer of concatenated frames (e.g. a delta log file). `next()`
/// returns nullopt at clean end-of-buffer and throws WireFormatError on a
/// malformed or truncated frame.
class FrameReader {
 public:
  explicit FrameReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<Frame> next();
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Incremental frame-boundary probe for byte-stream transports. Returns the
/// complete frame when `data` begins with one (payload borrows `data`);
/// nullopt when `data` is a valid but incomplete prefix (read more bytes);
/// throws WireFormatError as soon as the prefix can never become a valid
/// frame (bad magic, unsupported version, unknown type, overlong length
/// varint, or a payload length exceeding `max_payload`).
[[nodiscard]] std::optional<Frame> try_parse_frame(std::span<const std::uint8_t> data,
                                                   std::size_t max_payload = kMaxFramePayload);

/// Type of the complete frame at the start of `data`; throws on malformed
/// input. Dispatch helper for consumers of FrameBuffer-extracted frames.
[[nodiscard]] FrameType peek_frame_type(std::span<const std::uint8_t> data);

// --- Frame codecs. Each encode_* returns one full frame; each decode_*
// --- accepts exactly one full frame and throws WireFormatError otherwise.

[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(const core::InferenceResult& result);
[[nodiscard]] core::InferenceResult decode_snapshot(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_delta_batch(const EpochDelta& delta);
[[nodiscard]] EpochDelta decode_delta_batch(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_query_request(const QueryRequest& request);
[[nodiscard]] QueryRequest decode_query_request(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_query_response(const QueryResponse& response);
[[nodiscard]] QueryResponse decode_query_response(std::span<const std::uint8_t> frame);

// --- Network protocol frames (types 7-19). These are the unit of exchange
// --- between bgpcu_serve and its clients; layout in docs/PROTOCOL.md.

/// Why the server failed a request (kError frames). Values are wire-stable;
/// 4 (the pre-v3 server-busy code) is retired — every shed is a kBusy frame.
enum class ErrorCode : std::uint8_t {
  kAuthFailed = 1,           ///< Missing or wrong auth token.
  kBadRequest = 2,           ///< Malformed or unexpected frame.
  kUnknownSubscription = 3,  ///< Unsubscribe for an id the connection never opened.
  kInternal = 5,             ///< Server-side failure answering a valid request.
};

/// First frame on every connection, client -> server.
struct HelloFrame {
  std::uint8_t protocol = kProtocolVersion;
  std::string token;  ///< Empty when the server runs without auth.

  friend bool operator==(const HelloFrame&, const HelloFrame&) = default;
};

/// Handshake accept, server -> client.
struct WelcomeFrame {
  std::uint8_t protocol = kProtocolVersion;
  stream::Epoch epoch = 0;  ///< Service epoch at accept time.
  /// Oldest epoch the server's event log can still replay; nullopt when
  /// nothing has been published yet. Advisory — the authoritative per-replay
  /// coverage answer is the subscribe ack's replay_complete flag.
  std::optional<stream::Epoch> replay_horizon;

  friend bool operator==(const WelcomeFrame&, const WelcomeFrame&) = default;
};

/// Failure report. `request_id` 0 means connection-level (the server closes
/// the connection after sending it); nonzero ties it to a kRequest /
/// kSubscribe / kUnsubscribe id.
struct ErrorFrame {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  friend bool operator==(const ErrorFrame&, const ErrorFrame&) = default;
};

/// Open a subscription: the service-side SubscriptionFilter plus an optional
/// replay-from epoch (see Service::subscribe).
struct SubscribeFrame {
  std::uint64_t request_id = 0;
  SubscriptionFilter filter;
  std::optional<stream::Epoch> replay_from;

  friend bool operator==(const SubscribeFrame&, const SubscribeFrame&) = default;
};

/// Acknowledges kSubscribe (`subscription_id` names the new subscription)
/// and kUnsubscribe (as kUnsubscribed, echoing the closed id).
///
/// `replay_complete` travels only in kSubscribed acks, as one trailing byte:
/// when the subscribe asked for a replay_from epoch, it says whether the
/// retained event log still covered that epoch (false = the replay horizon
/// has passed it and the replayed tail is lossy — the client must re-sync
/// from a snapshot). Computed atomically with the replay inside the
/// service, so it cannot race a concurrent publish eviction. kUnsubscribed
/// acks never carry the byte; they decode with the default.
struct SubscribedFrame {
  std::uint64_t request_id = 0;
  std::uint64_t subscription_id = 0;
  bool replay_complete = true;

  friend bool operator==(const SubscribedFrame&, const SubscribedFrame&) = default;
};

/// Close one subscription.
struct UnsubscribeFrame {
  std::uint64_t request_id = 0;
  std::uint64_t subscription_id = 0;

  friend bool operator==(const UnsubscribeFrame&, const UnsubscribeFrame&) = default;
};

/// One pushed (filtered, non-empty) epoch batch on a subscription.
struct EventFrame {
  std::uint64_t subscription_id = 0;
  EpochDelta delta;

  friend bool operator==(const EventFrame&, const EventFrame&) = default;
};

/// A pipelinable query: the server answers each with a kResponse (or kError)
/// carrying the same request id, in arrival order.
struct RequestFrame {
  std::uint64_t request_id = 0;
  QueryRequest request;

  friend bool operator==(const RequestFrame&, const RequestFrame&) = default;
};

/// Answer to a RequestFrame.
struct ResponseFrame {
  std::uint64_t request_id = 0;
  QueryResponse response;
};

/// Keepalive probe/reply. The same payload serves kPing and kPong (the reply
/// echoes the probe's nonce), mirroring the kSubscribed/kUnsubscribed
/// type-parameterized codec.
struct PingFrame {
  std::uint64_t nonce = 0;

  friend bool operator==(const PingFrame&, const PingFrame&) = default;
};

/// Structured overload shed, server -> client. `request_id` 0 means
/// connection-level (admission control — the server closes after sending
/// it); nonzero sheds one rate-limited request while the connection stays
/// usable.
struct BusyFrame {
  std::uint64_t request_id = 0;
  std::uint64_t retry_after_ms = 0;  ///< Hint: back off at least this long.
  std::string message;

  friend bool operator==(const BusyFrame&, const BusyFrame&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const HelloFrame& hello);
[[nodiscard]] HelloFrame decode_hello(std::span<const std::uint8_t> frame);

/// The protocol byte leading a kHello payload, read without decoding the
/// rest. The server checks it first, so a peer of another protocol version,
/// whose hello layout may differ (v2's carried a feature-bits varint), is
/// refused by name rather than as a malformed frame. Throws WireFormatError
/// when `frame` is not a hello or its payload is empty.
[[nodiscard]] std::uint8_t peek_hello_protocol(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_welcome(const WelcomeFrame& welcome);
[[nodiscard]] WelcomeFrame decode_welcome(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_error(const ErrorFrame& error);
[[nodiscard]] ErrorFrame decode_error(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_subscribe(const SubscribeFrame& subscribe);
[[nodiscard]] SubscribeFrame decode_subscribe(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_subscribed(const SubscribedFrame& ack,
                                                          FrameType type = FrameType::kSubscribed);
[[nodiscard]] SubscribedFrame decode_subscribed(std::span<const std::uint8_t> frame,
                                                FrameType type = FrameType::kSubscribed);

[[nodiscard]] std::vector<std::uint8_t> encode_unsubscribe(const UnsubscribeFrame& unsubscribe);
[[nodiscard]] UnsubscribeFrame decode_unsubscribe(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_event(const EventFrame& event);
[[nodiscard]] EventFrame decode_event(std::span<const std::uint8_t> frame);

/// Split event encoding for serialize-once fan-out. An event frame is the
/// only frame the server sends to many peers at once, but its payload
/// starts with the per-subscription id — so the broadcast-shared part is
/// the delta payload and each subscriber gets a tiny owned prefix:
///
///   encode_event_prefix(id, payload.size()) ∥ encode_event_payload(delta)
///     == encode_event({id, delta})        (byte-for-byte)
///
/// The payload is encoded once per published epoch (per distinct filter)
/// and shared across every matching subscription's write queue.
[[nodiscard]] std::vector<std::uint8_t> encode_event_payload(const EpochDelta& delta);
[[nodiscard]] std::vector<std::uint8_t> encode_event_prefix(std::uint64_t subscription_id,
                                                            std::size_t payload_size);

[[nodiscard]] std::vector<std::uint8_t> encode_request(const RequestFrame& request);
[[nodiscard]] RequestFrame decode_request(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_response(const ResponseFrame& response);
[[nodiscard]] ResponseFrame decode_response(std::span<const std::uint8_t> frame);

[[nodiscard]] std::vector<std::uint8_t> encode_ping(const PingFrame& ping,
                                                    FrameType type = FrameType::kPing);
[[nodiscard]] PingFrame decode_ping(std::span<const std::uint8_t> frame,
                                    FrameType type = FrameType::kPing);

[[nodiscard]] std::vector<std::uint8_t> encode_busy(const BusyFrame& busy);
[[nodiscard]] BusyFrame decode_busy(std::span<const std::uint8_t> frame);

/// True when `data` begins with the wire magic (any version).
[[nodiscard]] bool looks_like_wire(std::span<const std::uint8_t> data) noexcept;

/// Loads a file's raw bytes (shared by the wire codec and the inspection
/// tools). Throws std::runtime_error on I/O failure.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(const std::string& path);

// --- File-level codec interface: the stable abstraction tools sit on, with
// --- the binary format and the v1 text database as interchangeable
// --- implementations.

enum class Format : std::uint8_t { kText, kWire };

/// Parses "text"/"wire"; nullopt on anything else.
[[nodiscard]] std::optional<Format> parse_format(std::string_view name) noexcept;

/// Serialization strategy for snapshot artifacts.
class Codec {
 public:
  virtual ~Codec() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Extension for snapshot files, including the dot (".db" / ".wire").
  [[nodiscard]] virtual std::string extension() const = 0;

  virtual void write_snapshot_file(const std::string& path,
                                   const core::InferenceResult& result) const = 0;
  [[nodiscard]] virtual core::InferenceResult read_snapshot_file(
      const std::string& path) const = 0;
};

/// Codec for `format`; never null.
[[nodiscard]] std::unique_ptr<Codec> make_codec(Format format);

/// Reads a snapshot in either format, sniffing the leading bytes.
[[nodiscard]] core::InferenceResult read_snapshot_any(const std::string& path);

/// Sniffs a file's format from its leading bytes; nullopt when it is neither
/// a wire frame nor a v1 text database.
[[nodiscard]] std::optional<Format> sniff_format(const std::string& path);

}  // namespace bgpcu::api

#endif  // BGPCU_API_WIRE_H
