// net::Client — the synchronous, single-connection consumer side of the
// frame protocol (v4), used by the protocol conformance tests; tools and
// benches ride net::ResilientClient. One Client wraps one Connection: the
// constructor performs the hello/welcome handshake, query() is blocking
// request/response (pushed events arriving in between are buffered, never
// lost), and subscribe()/next_event() expose the class-change feed. Every
// read answers the server's keepalive kPing with a kPong, so a client
// blocked in next_event() on a quiet feed stays connected. Single-threaded
// by design: call it from one thread.
#ifndef BGPCU_NET_CLIENT_H
#define BGPCU_NET_CLIENT_H

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "api/service.h"
#include "api/wire.h"
#include "net/framer.h"
#include "net/transport.h"

namespace bgpcu::net {

/// The server answered with a kError frame; carries its code and message.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(api::ErrorFrame error);

  [[nodiscard]] const api::ErrorFrame& error() const noexcept { return error_; }

 private:
  api::ErrorFrame error_;
};

/// The server shed us with a kBusy frame; carries the retry-after hint.
/// Request id 0 is connection-level (the server closes next); otherwise only
/// that request was shed and the connection stays usable.
class BusyError : public std::runtime_error {
 public:
  explicit BusyError(api::BusyFrame busy)
      : std::runtime_error("server busy: " + busy.message), busy_(std::move(busy)) {}

  [[nodiscard]] const api::BusyFrame& busy() const noexcept { return busy_; }
  [[nodiscard]] std::uint64_t retry_after_ms() const noexcept { return busy_.retry_after_ms; }

 private:
  api::BusyFrame busy_;
};

class Client {
 public:
  struct Options {
    std::string token;  ///< Sent in the hello frame; must match the server's.
    /// Cap on server -> client frames; snapshots can be large.
    std::size_t max_frame_payload = api::kMaxFramePayload;
  };

  /// Performs the handshake; throws ProtocolError when the server rejects
  /// it (auth, version), BusyError at its connection limit, and
  /// TransportError when the connection drops mid-way.
  Client(std::unique_ptr<Connection> conn, Options options);
  explicit Client(std::unique_ptr<Connection> conn) : Client(std::move(conn), Options{}) {}

  /// The server's handshake accept (protocol version, epoch at connect,
  /// replay horizon).
  [[nodiscard]] const api::WelcomeFrame& welcome() const noexcept { return welcome_; }

  /// Blocking request/response. Events pushed while waiting are buffered
  /// for next_event(). Throws ProtocolError on a kError answer and
  /// BusyError when the request is shed.
  [[nodiscard]] api::QueryResponse query(const api::QueryRequest& request);

  /// Opens a subscription; returns its id (carried by every kEvent for it).
  std::uint64_t subscribe(const api::SubscriptionFilter& filter,
                          std::optional<stream::Epoch> replay_from = std::nullopt);

  /// Closes a subscription (acknowledged before returning).
  void unsubscribe(std::uint64_t subscription_id);

  /// The next pushed event — buffered or freshly read, blocking until one
  /// arrives. nullopt once the server closed the stream.
  [[nodiscard]] std::optional<api::EventFrame> next_event();

  /// Half-closes toward the server: no more requests will be sent, but
  /// already-solicited responses/events can still be drained.
  void finish_requests();

  void close();

 private:
  /// Next complete frame from the wire; empty on end-of-stream.
  [[nodiscard]] std::vector<std::uint8_t> read_frame();
  /// Reads until a frame of type `want` arrives (empty on end-of-stream):
  /// buffers events, answers pings, and throws on kBusy, kError or any
  /// other type.
  [[nodiscard]] std::vector<std::uint8_t> await(api::FrameType want);
  void send(const std::vector<std::uint8_t>& frame);

  std::unique_ptr<Connection> conn_;
  FrameBuffer frames_;
  std::vector<std::uint8_t> chunk_;  ///< Read buffer, reused across frames.
  api::WelcomeFrame welcome_;
  std::uint64_t next_request_id_ = 1;
  std::deque<api::EventFrame> pending_events_;
};

}  // namespace bgpcu::net

#endif  // BGPCU_NET_CLIENT_H
