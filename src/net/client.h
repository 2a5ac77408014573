// net::Client — one client session of the frame protocol (v4): the only
// code for the client side of a connection. One Client wraps one
// Connection: the constructor performs the hello/welcome handshake, query()
// is blocking request/response (pushed events arriving in between are
// buffered, never lost), and subscribe()/next_event() expose the
// class-change feed. Every read answers the server's keepalive kPing with a
// kPong, so a client blocked in next_event() on a quiet feed stays
// connected. The protocol conformance tests drive it directly;
// net::ResilientClient runs one Client per connection it makes and adds
// the reconnect policy on top (pump() and the read deadline are its
// hooks). Single-threaded by design: call it from one thread.
#ifndef BGPCU_NET_CLIENT_H
#define BGPCU_NET_CLIENT_H

#include <chrono>
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
  };

  /// Performs the handshake; throws ProtocolError when the server rejects
  /// it (auth, version), BusyError at its connection limit, and
  /// TransportError when the connection drops mid-way or a read deadline
  /// already set on `conn` expires before the welcome.
  Client(std::unique_ptr<Connection> conn, Options options);
  explicit Client(std::unique_ptr<Connection> conn) : Client(std::move(conn), Options{}) {}

  /// The server's handshake accept (protocol version, epoch at connect,
  /// replay horizon).
  [[nodiscard]] const api::WelcomeFrame& welcome() const noexcept { return welcome_; }

  /// Bounds every later read (see Connection::set_read_timeout); an expired
  /// deadline reads as end-of-stream. Zero blocks forever.
  void set_read_timeout(std::chrono::milliseconds timeout);

  /// Blocking request/response. Events pushed while waiting are buffered
  /// for buffered_event() and next_event(). Throws ProtocolError on a kError answer and
  /// BusyError when the request is shed.
  [[nodiscard]] api::QueryResponse query(const api::QueryRequest& request);

  /// Opens a subscription; returns its id (carried by every kEvent for it).
  /// When `replay_complete` is non-null it receives the ack's coverage flag,
  /// as api::Service::subscribe reports it: false means the replay horizon
  /// had passed `replay_from`.
  std::uint64_t subscribe(const api::SubscriptionFilter& filter,
                          std::optional<stream::Epoch> replay_from = std::nullopt,
                          bool* replay_complete = nullptr);

  /// Closes a subscription (acknowledged before returning).
  void unsubscribe(std::uint64_t subscription_id);

  /// Sends a keepalive probe; the kPong comes back through pump().
  void ping(std::uint64_t nonce);

  /// Reads one frame the server sent unasked and handles it: an event is
  /// buffered, a kPing answered, a kPong accepted. Throws BusyError on
  /// kBusy, ProtocolError on kError and TransportError on any other type.
  /// False on end-of-stream or an expired read deadline.
  [[nodiscard]] bool pump();

  /// Pops a buffered event without reading; nullopt when none is buffered.
  [[nodiscard]] std::optional<api::EventFrame> buffered_event();

  /// The next pushed event — buffered, else pump() until one arrives.
  /// nullopt once the server closed the stream.
  [[nodiscard]] std::optional<api::EventFrame> next_event();

  /// Half-closes toward the server: no more requests will be sent, but
  /// already-solicited responses/events can still be drained.
  void finish_requests();

  void close();

 private:
  /// Next complete frame from the wire; empty on end-of-stream or an
  /// expired read deadline.
  [[nodiscard]] std::vector<std::uint8_t> read_frame();
  /// Reads until a frame of type `want` arrives (empty on end-of-stream),
  /// handling every other frame as pump() does.
  [[nodiscard]] std::vector<std::uint8_t> await(api::FrameType want);
  /// pump()'s handling of one frame of type `type`.
  void handle_unsolicited(const std::vector<std::uint8_t>& frame, api::FrameType type);
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
