// The serving core behind bgpcu_serve: accepts Transport connections and
// speaks the frame protocol (docs/PROTOCOL.md) over each, translating
// kRequest frames into api::Service queries and kSubscribe frames into
// service subscriptions whose events stream back as kEvent frames. Every
// connection speaks protocol v4: one hello/welcome handshake, after which
// keepalive probes, kBusy sheds and the subscribe-ack coverage byte apply
// unconditionally — there is nothing to negotiate.
//
// Concurrency model — the point of this class: connections are served by an
// event-driven readiness loop. An accept thread hands each connection to one
// of a small set of IO threads, each running an epoll Poller over nonblocking
// connections and doing all of their reads and writes; decoded frames are
// dispatched per-connection (in order) on a fixed worker pool so a slow
// service query never stalls the IO loop. Published events are serialized
// once per epoch (per distinct filter) into a shared refcounted buffer that
// every matching subscriber's write queue references — fan-out costs one
// encode, not one per peer. Write queues are bounded in bytes
// (write_queue_bytes_limit); a subscriber that overflows the bound is
// disconnected (counted in bgpcu_net_slow_disconnects_total) instead of
// waited for, so one stalled peer can never hold up publish(), ingest, or
// any other connection. A connection whose transport cannot be polled
// (Connection::poll_info reports non-pollable) is closed at accept.
#ifndef BGPCU_NET_SERVER_H
#define BGPCU_NET_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "api/service.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace bgpcu::net {

struct ServerConfig {
  /// Required token when non-empty: a kHello with a different token is
  /// rejected with ErrorCode::kAuthFailed and the connection is closed.
  std::string auth_token;
  /// Accepted connections beyond this are turned away with a kBusy.
  std::size_t max_connections = 64;
  /// Per-frame payload cap on *client -> server* frames. Requests are tiny;
  /// a modest cap bounds what an abusive peer can make the server buffer.
  std::size_t max_request_payload = std::size_t{1} << 20;
  /// Per-connection write queue cap, in bytes. Overflow means the consumer
  /// is too slow to keep up: it is disconnected (and counted in
  /// bgpcu_net_slow_disconnects_total). Each queued frame is charged its
  /// wire bytes plus a fixed per-frame cost (its queue slot and buffer
  /// allocation), so a peer that pipelines requests without reading the
  /// replies is bounded too, however small the replies. The check is on
  /// bytes already queued, so one frame larger than the limit still goes
  /// out when the queue is under the bound.
  std::size_t write_queue_bytes_limit = std::size_t{32} << 20;
  /// Deadline for the client's first frame, in milliseconds (0 disables).
  /// Bounds how long an idle connect — including one awaiting its busy
  /// rejection — can hold a connection slot.
  std::uint32_t hello_timeout_ms = 5000;
  /// Open subscriptions one connection may hold. Each subscription costs
  /// the Service a stored filter evaluated on every publish, so this is
  /// bounded for the same reason as the wire-level watchlist cap.
  std::size_t max_subscriptions_per_connection = 64;
  /// How long a connection may stay silent after its handshake before the
  /// server probes it with kPing, in milliseconds (0 disables probing).
  /// A dead peer is detected even when the server has nothing to send.
  std::uint32_t keepalive_interval_ms = 15000;
  /// After a probe, how long to wait for *any* inbound byte before declaring
  /// the peer dead and tearing the connection down.
  std::uint32_t keepalive_timeout_ms = 5000;
  /// Per-connection request/subscribe admission rate (token bucket refilled
  /// continuously, burst capacity `request_burst`). Over-budget requests are
  /// shed cheap-and-early — answered with kBusy *before* touching the
  /// service — instead of timing out deep in the dispatch queue.
  /// 0 = unlimited.
  std::uint32_t max_requests_per_sec = 0;
  std::uint32_t request_burst = 32;
  /// Retry-after hint carried in every kBusy shed.
  std::uint32_t busy_retry_after_ms = 1000;
  /// Event-loop threads (clamped to >= 1). Connections are assigned
  /// round-robin at accept time.
  std::size_t io_threads = 1;
  /// Worker threads decoding/dispatching frames off the IO loops, so a slow
  /// service query never stalls a loop's other connections (clamped to
  /// >= 1).
  std::size_t worker_threads = 1;
};

/// Counts every event (connections, frames, errors, sheds, keepalive) only
/// in the process-wide obs registry: the bgpcu_net_* families.
class Server {
 public:
  /// The service must outlive the server. The listener is shared so tests
  /// (and in-process clients) can keep a handle to connect() against.
  Server(api::Service& service, std::shared_ptr<Listener> listener,
         ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the IO loops, worker pool, and accept loop. Call once.
  void start();

  /// Closes the listener and every live connection, joins all threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Live (not yet torn down) connections, including ones still on their
  /// way from the accept thread into an IO loop.
  [[nodiscard]] std::size_t connection_count() const;

 private:
  class EventConn;   // one connection: protocol + poller-driven IO
  class IoLoop;      // one poller + its thread
  class WorkerPool;  // frame dispatch off the IO threads

  void accept_loop();
  /// Runs `conn`'s inbox drain on the worker pool.
  void submit_worker(std::shared_ptr<EventConn> conn);

  api::Service& service_;
  std::shared_ptr<Listener> listener_;
  ServerConfig config_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  /// Created in the constructor (so scrape collectors can count them
  /// immediately), threads spawned in start().
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::unique_ptr<WorkerPool> workers_;
  std::atomic<std::uint64_t> next_conn_id_{0};
  std::size_t next_loop_ = 0;  ///< Accept-thread only (round-robin).

  /// Open-connection gauge, computed at scrape time. Declared last so it
  /// unregisters before loops_ is torn down.
  obs::ScopedCollector conns_collector_;
};

}  // namespace bgpcu::net

#endif  // BGPCU_NET_SERVER_H
