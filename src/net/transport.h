// The byte-stream transport abstraction the serving stack is written
// against. A Transport is a factory for duplex Connections plus a Listener
// that accepts them; the daemon, the client, and every protocol test talk
// only to these interfaces. Two implementations exist: real TCP sockets
// (net/socket.h) for production, and an in-process loopback pair
// (net/loopback.h) so the full protocol conformance suite — framing splits,
// pipelining, backpressure, half-close, malformed frames — runs
// deterministically without binding a single port.
#ifndef BGPCU_NET_TRANSPORT_H
#define BGPCU_NET_TRANSPORT_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

namespace bgpcu::net {

/// Thrown on unrecoverable transport failures (socket errors, address
/// resolution). Peer disconnects are NOT errors — reads return 0 and writes
/// return false, because a vanishing peer is normal protocol life.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

/// Result of a nonblocking try_read / try_write attempt.
enum class IoStatus : std::uint8_t {
  kOk,          ///< one or more bytes transferred
  kWouldBlock,  ///< no progress possible right now; wait for readiness
  kEof,         ///< stream over: peer gone, reset, or locally closed
};

/// Readiness descriptors for the event-driven server. `read_fd` becomes
/// readable when try_read can make progress (or EOF is pending). When
/// `write_fd` differs from `read_fd` it is a *signal* fd that becomes
/// READABLE when try_write can make progress (loopback uses an eventfd);
/// when they are equal (TCP) the owner asks for plain write readiness on
/// the one fd. A default-constructed PollInfo means the connection cannot
/// be polled (its readiness fds could not be created); servers refuse it.
struct PollInfo {
  int read_fd = -1;
  int write_fd = -1;
  [[nodiscard]] bool pollable() const noexcept { return read_fd >= 0 && write_fd >= 0; }
};

/// One duplex byte-stream connection, with two surfaces. The blocking one
/// (read_some/write_all) serves clients: one reader thread and one writer
/// thread may use it concurrently. The nonblocking one (poll_info/
/// try_read/try_write) serves the event loop, which drives a connection
/// from one thread at a time. close() may be called from any thread and
/// unblocks both.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Blocks until at least one byte is available, then returns up to
  /// `out.size()` bytes. Returns 0 on end-of-stream: the peer closed or
  /// half-closed its write side, close() was called locally, or the read
  /// deadline (set_read_timeout) expired with no data.
  virtual std::size_t read_some(std::span<std::uint8_t> out) = 0;

  /// Bounds how long read_some may block; an expired deadline reads as
  /// end-of-stream. Zero (the initial state) means block forever. Clients
  /// use this to bound how long they wait on a silent peer.
  virtual void set_read_timeout(std::chrono::milliseconds timeout) = 0;

  /// Blocks until all of `data` is accepted by the transport. Returns false
  /// when the peer is gone (reset, closed read side, or local close()).
  virtual bool write_all(std::span<const std::uint8_t> data) = 0;

  /// Half-close: flushes and ends the local write side; the peer's
  /// read_some eventually returns 0. Reads stay usable — the canonical
  /// "send requests, half-close, drain responses" pattern.
  virtual void shutdown_write() = 0;

  /// Tears down both directions and unblocks any thread inside read_some or
  /// write_all. Idempotent.
  virtual void close() = 0;

  /// Human-readable peer name for diagnostics ("127.0.0.1:45112", "loopback").
  [[nodiscard]] virtual std::string peer_name() const = 0;

  /// Readiness fds for the event loop (see PollInfo).
  [[nodiscard]] virtual PollInfo poll_info() const = 0;

  /// Nonblocking read of up to `out.size()` bytes into `out`. Sets `n` to
  /// the byte count on kOk (n >= 1); n is 0 otherwise. Never blocks.
  virtual IoStatus try_read(std::span<std::uint8_t> out, std::size_t& n) = 0;

  /// Nonblocking write of a prefix of `data`. Sets `n` to the bytes
  /// accepted on kOk (n >= 1); n is 0 otherwise. Never blocks.
  virtual IoStatus try_write(std::span<const std::uint8_t> data, std::size_t& n) = 0;
};

/// Accepts inbound connections. close() unblocks a pending accept().
class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound connection; nullptr once close() was called
  /// (the server's signal to stop accepting).
  virtual std::unique_ptr<Connection> accept() = 0;

  /// Stops accepting and wakes any blocked accept(). Idempotent.
  virtual void close() = 0;

  /// Where this listener accepts ("127.0.0.1:4711", "loopback").
  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace bgpcu::net

#endif  // BGPCU_NET_TRANSPORT_H
