#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "api/wire.h"
#include "net/framer.h"
#include "net/poller.h"
#include "obs/trace.h"
#include "obs/wellknown.h"

namespace bgpcu::net {

namespace {

/// How many over-limit connections may be held for a graceful rejection
/// (bounded by hello_timeout_ms) at once; everything past this is closed
/// abruptly so a connection flood cannot scale per-connection state.
constexpr std::size_t kGracefulRejectSlots = 8;

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One queued outbound frame: an owned head (always the complete frame for
/// responses/errors/acks; just the per-subscription prefix for events)
/// optionally followed by a shared, immutable broadcast tail. head ∥ tail
/// is exactly one wire frame.
struct OutFrame {
  std::vector<std::uint8_t> head;
  api::EncodedEventPtr tail;

  [[nodiscard]] std::size_t size() const noexcept {
    return head.size() + (tail ? tail->size() : 0);
  }

  /// What the frame is charged against write_queue_bytes_limit while
  /// queued: its wire bytes plus its queue slot and the allocator's share
  /// of its head buffer. The fixed part bounds a flood of tiny frames
  /// (busy sheds, pongs, one-AS answers) by the memory it pins.
  [[nodiscard]] std::size_t queued_bytes() const noexcept {
    return size() + sizeof(OutFrame) + 32;
  }
};

/// Inbound frames read but not yet dispatched, in bytes, past which a
/// connection stops reading until its worker catches up. A peer that sends
/// faster than its requests are served then backs up in its own transport
/// instead of in server memory.
constexpr std::size_t kInboxPauseBytes = std::size_t{1} << 20;

}  // namespace

// -------------------------------------------------------------- EventConn --

/// One live connection: the protocol (handshake, dispatch, subscriptions,
/// admission control) over poller-driven IO. All socket IO happens on the
/// owning IoLoop's thread; decoded frames are dispatched, in order, by at
/// most one worker at a time (the inbox + worker_scheduled_ flag serialize
/// it). Members are grouped by owner; cross-thread handoffs go through the
/// mutexes and the atomics. The loop-driven members are public because the
/// sibling IoLoop (not a friend under nested-class rules) drives this
/// object — both classes are local to this translation unit. Held by
/// shared_ptr from its loop and, weakly, from subscription callbacks living
/// inside the Service.
class Server::EventConn : public std::enable_shared_from_this<Server::EventConn> {
 public:
  /// `reject` marks an over-limit connection: its first frame is answered
  /// with a connection-level kBusy and the connection torn down.
  /// Rejecting through a normal connection (rather than write-and-close in
  /// the accept loop) matters on real TCP: closing with the client's unread
  /// hello still buffered raises RST, which can discard the queued error.
  EventConn(Server& server, std::unique_ptr<Connection> conn, bool reject, PollInfo pi,
            std::uint64_t token_base, IoLoop* loop)
      : server_(server),
        conn_(std::move(conn)),
        reject_(reject),
        rate_tokens_(static_cast<double>(server.config_.request_burst)),
        pi_(pi),
        token_base_(token_base),
        loop_(loop),
        frames_(server.config_.max_request_payload),
        read_chunk_(16384) {}

  /// Hard teardown from outside (server stop, queue overflow, dead peer):
  /// drop pending output and close the transport. Never blocks.
  void abort_connection();
  [[nodiscard]] bool done() const noexcept { return completed_.load() || aborted_.load(); }

  [[nodiscard]] std::shared_ptr<EventConn> self() { return shared_from_this(); }

  void clear_flush_pending() { flush_pending_.store(false); }

  /// Loop-thread, once: stamps the hello-deadline and keepalive baselines.
  void mark_adopted(std::uint64_t now) {
    adopt_ms_ = now;
    last_rx_ms_.store(now);
  }

  // --- IO-loop-thread entry points -----------------------------------
  void handle_readable(IoLoop& loop);
  void flush(IoLoop& loop);
  void update_interest(IoLoop& loop);
  /// Next steady-ms instant a deadline fires (0 = none): the hello
  /// deadline before the handshake, the keepalive cadence after.
  [[nodiscard]] std::uint64_t next_deadline() const;
  void on_deadline(IoLoop& loop, std::uint64_t now);

  // --- worker entry point --------------------------------------------
  /// Drains queued inbound frames through handle_frame. At most one worker
  /// runs this per connection at a time; it re-runs until the inbox is
  /// empty, then finalizes teardown exactly once when the connection is
  /// over (EOF, fatal protocol error, or abort).
  void drain_inbox();

  /// Unsubscribes everything this connection registered with the service.
  /// Idempotent; must run before the connection's output drains out so the
  /// service stops delivering into it.
  void release_subscriptions() {
    std::unordered_map<std::uint64_t, api::SubscriptionId> subs;
    {
      const std::lock_guard lock(subs_mutex_);
      if (subs_released_) return;
      subs_released_ = true;
      subs.swap(subscriptions_);
    }
    for (const auto& [local_id, service_id] : subs) {
      (void)server_.service_.unsubscribe(service_id);
    }
  }

 private:
  /// Queues one outbound frame. Never blocks: an overflowing queue means a
  /// slow consumer, which is aborted rather than waited for. Safe from any
  /// thread, including Service publish callbacks.
  void enqueue(OutFrame frame);

  void enqueue_frame(std::vector<std::uint8_t> frame) {
    enqueue({std::move(frame), nullptr});
  }

  /// Queues one event frame: tiny owned prefix + shared broadcast payload.
  void enqueue_event(std::uint64_t local_id, const api::EncodedEventPtr& payload) {
    enqueue({api::encode_event_prefix(local_id, payload->size()), payload});
  }

  void send_error(std::uint64_t request_id, api::ErrorCode code,
                  const std::string& message) {
    // net_protocol_errors counts invalid client *input*; auth failures, busy
    // rejections, and internal failures have their own accounting.
    if (code == api::ErrorCode::kBadRequest ||
        code == api::ErrorCode::kUnknownSubscription) {
      obs::metrics().net_protocol_errors.add(1);
    }
    enqueue_frame(api::encode_error({request_id, code, message}));
  }

  /// Answers the opening frame: kWelcome, or one error and false. Throws
  /// WireFormatError on a hello payload that does not decode.
  bool handshake(api::FrameType type, const std::vector<std::uint8_t>& frame) {
    if (type != api::FrameType::kHello) {
      send_error(0, api::ErrorCode::kBadRequest, "first frame must be hello");
      return false;
    }
    // Exact match, checked before the rest of the payload is decoded: an
    // older client would misdecode responses whose payloads grew since its
    // version, and its hello may not even parse as ours (v2's carried a
    // feature-bits varint), so the mismatch must fail loudly and by name.
    const auto protocol = api::peek_hello_protocol(frame);
    if (protocol != api::kProtocolVersion) {
      send_error(0, api::ErrorCode::kBadRequest,
                 "unsupported protocol version " + std::to_string(protocol));
      return false;
    }
    const auto hello = api::decode_hello(frame);
    if (!server_.config_.auth_token.empty() && hello.token != server_.config_.auth_token) {
      obs::metrics().net_auth_failures.add(1);
      send_error(0, api::ErrorCode::kAuthFailed, "bad auth token");
      return false;
    }
    hello_passed_.store(true);  // lifts the first-frame deadline, starts keepalive
    enqueue_frame(api::encode_welcome({api::kProtocolVersion, server_.service_.epoch(),
                                       server_.service_.replay_horizon()}));
    return true;
  }

  /// Token-bucket admission for kRequest/kSubscribe: refilled continuously
  /// at max_requests_per_sec up to request_burst. Dispatch-serialized.
  bool admit_request() {
    const auto rate = server_.config_.max_requests_per_sec;
    if (rate == 0) return true;
    const auto now = std::chrono::steady_clock::now();
    const auto elapsed = std::chrono::duration<double>(now - rate_last_).count();
    rate_last_ = now;
    rate_tokens_ = std::min<double>(static_cast<double>(server_.config_.request_burst),
                                    rate_tokens_ + elapsed * rate);
    if (rate_tokens_ >= 1.0) {
      rate_tokens_ -= 1.0;
      return true;
    }
    return false;
  }

  /// Sheds one over-budget request before it reaches the service, as a
  /// kBusy with a retry-after hint. Non-fatal — the connection (and its
  /// subscriptions) live on.
  void shed_request(std::uint64_t request_id) {
    obs::metrics().net_requests_shed.add(1);
    enqueue_frame(api::encode_busy(
        {request_id, server_.config_.busy_retry_after_ms, "request rate limit exceeded"}));
  }

  /// Dispatches one complete inbound frame. Returns false on a fatal
  /// protocol violation (an error frame has been queued; stop reading).
  /// Throws WireFormatError on a payload that does not decode. Serialized
  /// per connection by the inbox drain.
  bool handle_frame(const std::vector<std::uint8_t>& frame) {
    const auto type = api::peek_frame_type(frame);
    if (reject_) {
      // The client's opening frame has now been consumed, so the shed can
      // reach it without a reset racing the close.
      obs::metrics().net_busy_rejections.add(1);
      enqueue_frame(api::encode_busy(
          {0, server_.config_.busy_retry_after_ms, "connection limit reached"}));
      return false;
    }
    if (!hello_passed_.load()) return handshake(type, frame);
    switch (type) {
      case api::FrameType::kPing: {
        const auto ping = api::decode_ping(frame);
        obs::metrics().net_pings_received.add(1);
        enqueue_frame(api::encode_ping(ping, api::FrameType::kPong));
        return true;
      }
      case api::FrameType::kPong: {
        // The probe's job was done by the bytes arriving (last_rx_ms_ is
        // already fresh); decode only to validate.
        (void)api::decode_ping(frame, api::FrameType::kPong);
        return true;
      }
      case api::FrameType::kRequest: {
        auto& m = obs::metrics();
        obs::StageTimer decode_span(m.request_stage_decode_ns);
        const auto request = api::decode_request(frame);
        decode_span.stop();
        if (!admit_request()) {
          shed_request(request.request_id);
          return true;
        }
        try {
          obs::StageTimer dispatch_span(m.request_stage_dispatch_ns);
          auto response = server_.service_.query(request.request);
          dispatch_span.stop();
          obs::StageTimer encode_span(m.request_stage_encode_ns);
          auto encoded = api::encode_response({request.request_id, std::move(response)});
          encode_span.stop();
          obs::StageTimer enqueue_span(m.request_stage_enqueue_ns);
          enqueue_frame(std::move(encoded));
        } catch (const std::exception& e) {
          send_error(request.request_id, api::ErrorCode::kInternal, e.what());
        }
        return true;
      }
      case api::FrameType::kSubscribe: {
        const auto subscribe = api::decode_subscribe(frame);
        if (!admit_request()) {
          shed_request(subscribe.request_id);
          return true;
        }
        std::size_t open = 0;
        {
          const std::lock_guard lock(subs_mutex_);
          open = subscriptions_.size();
        }
        if (open >= server_.config_.max_subscriptions_per_connection) {
          send_error(subscribe.request_id, api::ErrorCode::kBadRequest,
                     "subscription limit (" +
                         std::to_string(server_.config_.max_subscriptions_per_connection) +
                         ") reached on this connection");
          return true;  // non-fatal: existing subscriptions keep streaming
        }
        const auto local_id = next_subscription_id_++;
        // Register with the service *before* acking: once the client sees
        // the ack, a publish on any thread is guaranteed to reach it.
        // Replayed events are therefore enqueued ahead of the ack — clients
        // buffer events at any time, so that ordering is fine.
        std::weak_ptr<EventConn> weak = weak_from_this();
        // The peer learns atomically with the replay whether the event log
        // still covered its replay_from epoch; a false flag tells the client
        // to re-sync from a snapshot instead of trusting the (lossy)
        // replayed tail.
        api::SubscribedFrame ack{subscribe.request_id, local_id};
        // The encoded flavor: publish() serializes the filtered delta once
        // per distinct filter and every matching connection shares the
        // buffer; only the per-subscription frame prefix is owned here.
        const auto service_id = server_.service_.subscribe_encoded(
            subscribe.filter,
            [weak, local_id](stream::Epoch, const api::EncodedEventPtr& payload) {
              if (const auto self = weak.lock()) {
                self->enqueue_event(local_id, payload);
              }
            },
            subscribe.replay_from, &ack.replay_complete);
        bool released = false;
        {
          const std::lock_guard lock(subs_mutex_);
          released = subs_released_;
          if (!released) subscriptions_.emplace(local_id, service_id);
        }
        if (released) {
          // Teardown raced the registration: the connection is going away,
          // so take the subscription right back out of the service.
          (void)server_.service_.unsubscribe(service_id);
          return true;
        }
        enqueue_frame(api::encode_subscribed(ack));
        return true;
      }
      case api::FrameType::kUnsubscribe: {
        const auto unsubscribe = api::decode_unsubscribe(frame);
        std::optional<api::SubscriptionId> service_id;
        {
          const std::lock_guard lock(subs_mutex_);
          const auto it = subscriptions_.find(unsubscribe.subscription_id);
          if (it != subscriptions_.end()) {
            service_id = it->second;
            subscriptions_.erase(it);
          }
        }
        if (!service_id) {
          send_error(unsubscribe.request_id, api::ErrorCode::kUnknownSubscription,
                     "unknown subscription " + std::to_string(unsubscribe.subscription_id));
          return true;  // non-fatal: the client may have raced a disconnect
        }
        (void)server_.service_.unsubscribe(*service_id);
        enqueue_frame(api::encode_subscribed({unsubscribe.request_id, unsubscribe.subscription_id},
                                             api::FrameType::kUnsubscribed));
        return true;
      }
      default:
        return unexpected_type(type);
    }
  }

  bool unexpected_type(api::FrameType type) {
    send_error(0, api::ErrorCode::kBadRequest,
               "unexpected frame type " +
                   std::to_string(static_cast<int>(type)) + " from client");
    return false;
  }

  Server& server_;
  std::unique_ptr<Connection> conn_;
  const bool reject_;

  // Dispatch-serialized state (inbox drain — never concurrent with itself).
  std::uint64_t next_subscription_id_ = 1;
  double rate_tokens_ = 0;
  std::chrono::steady_clock::time_point rate_last_ = std::chrono::steady_clock::now();

  /// Guards the subscription table against teardown racing registration.
  std::mutex subs_mutex_;
  std::unordered_map<std::uint64_t, api::SubscriptionId> subscriptions_;
  bool subs_released_ = false;

  /// Last inbound byte: the keepalive baseline.
  std::atomic<std::uint64_t> last_rx_ms_{0};

 public:
  /// One inbox entry: a complete frame, or the framing error that ended
  /// the stream (dispatched in order so everything decoded before the
  /// error is still answered first).
  struct InItem {
    std::vector<std::uint8_t> frame;
    bool framing_error = false;
    std::string error;
  };

  const PollInfo pi_;
  const std::uint64_t token_base_;  ///< Poller token; bit 0 = write-signal fd.
  IoLoop* const loop_;

  // IO-loop-thread state.
  FrameBuffer frames_;
  std::vector<std::uint8_t> read_chunk_;
  bool read_done_ = false;
  bool want_write_ = false;  ///< A partial frame is in flight.
  std::optional<OutFrame> inflight_;
  std::size_t inflight_off_ = 0;
  bool ping_outstanding_ = false;
  std::uint64_t ping_sent_ms_ = 0;
  std::uint64_t ping_nonce_ = 0;
  std::uint64_t adopt_ms_ = 0;  ///< Set once at adoption (hello deadline base).
  bool retired_ = false;        ///< Removed from the loop's table.
  // Interests actually registered with the poller, so the flush-heavy
  // steady state (interest unchanged) costs no epoll_ctl round-trips.
  bool reg_valid_ = false;
  bool reg_read_ = false;
  bool reg_write_ = false;

  // Inbound handoff: loop thread fills, one worker drains.
  std::mutex in_mutex_;
  std::deque<InItem> inbox_;
  std::size_t inbox_bytes_ = 0;
  bool worker_scheduled_ = false;
  bool eof_ = false;
  bool finalized_ = false;

  // Outbound queue: any thread fills (publish callbacks), loop flushes.
  std::mutex out_mutex_;
  std::deque<OutFrame> outq_;
  std::size_t out_bytes_ = 0;
  bool out_closed_ = false;
  bool close_after_flush_ = false;

  bool fatal_ = false;  ///< Worker-serialized (protocol violation seen).

  std::atomic<bool> hello_passed_{false};
  std::atomic<bool> stop_reading_{false};
  /// The inbox is full (kInboxPauseBytes): reads wait for the worker.
  std::atomic<bool> read_paused_{false};
  std::atomic<bool> flush_pending_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> completed_{false};

 private:
  void keepalive_check(std::uint64_t now);
  /// Runs once, on the worker, when the connection is over: stops reads,
  /// releases subscriptions, and asks the loop to drain-then-half-close.
  void finalize_teardown();
};

// ----------------------------------------------------------------- IoLoop --

/// One poller and the thread that runs it. Connections are handed in (and
/// flush requests delivered) through mailboxes + wake() — the only
/// cross-thread surface; everything else (the connection table, interest
/// updates, deadline scans) is loop-thread-only.
class Server::IoLoop {
 public:
  explicit IoLoop(Server& server) : server_(server) {}

  ~IoLoop() {
    stop();
    join();
  }

  void start() {
    thread_ = std::thread([this] { run(); });
  }

  void stop() {
    stopping_.store(true);
    poller_.wake();
  }

  void join() {
    if (thread_.joinable()) thread_.join();
  }

  /// Accept-thread handoff. live_ bumps immediately so the accept loop's
  /// admission census counts connections still sitting in the mailbox.
  void adopt(std::shared_ptr<EventConn> conn) {
    bool need_wake = false;
    {
      const std::lock_guard lock(mail_mutex_);
      adopt_mail_.push_back(std::move(conn));
      need_wake = sleeping_;
    }
    live_.fetch_add(1);
    if (need_wake) poller_.wake();
  }

  /// Any-thread request to drain `conn`'s output queue. Duplicate mail is
  /// harmless (flush is idempotent); flush_pending_ keeps the common case
  /// to one entry per wakeup. The wake fires only when the loop is parked
  /// in the poller: a publish burst fanning out to thousands of
  /// connections pays one eventfd write, not one per connection — the
  /// loop re-checks its mailboxes before every sleep.
  void request_flush(std::shared_ptr<EventConn> conn) {
    bool need_wake = false;
    {
      const std::lock_guard lock(mail_mutex_);
      flush_mail_.push_back(std::move(conn));
      need_wake = sleeping_;
    }
    if (need_wake) poller_.wake();
  }

  [[nodiscard]] std::size_t live() const { return live_.load(); }

  [[nodiscard]] Poller& poller() { return poller_; }

  /// Post-join harvest of connections never retired (server stop): mailbox
  /// leftovers plus everything still in the table.
  std::vector<std::shared_ptr<EventConn>> drain_remaining() {
    std::vector<std::shared_ptr<EventConn>> out;
    {
      const std::lock_guard lock(mail_mutex_);
      for (auto& conn : adopt_mail_) out.push_back(std::move(conn));
      adopt_mail_.clear();
      flush_mail_.clear();
    }
    for (auto& [token, conn] : conns_) out.push_back(std::move(conn));
    conns_.clear();
    live_.store(0);
    return out;
  }

  /// Retires `conn` once it is done(): deregisters, drops it from the
  /// table, and makes sure the finalize worker runs even when the teardown
  /// came from abort_connection rather than the inbox drain (otherwise an
  /// aborted connection's subscriptions would leak until server stop).
  void maybe_retire(const std::shared_ptr<EventConn>& conn) {
    if (conn->retired_ || !conn->done()) return;
    conn->retired_ = true;
    poller_.remove(conn->pi_.read_fd);
    if (conn->pi_.write_fd != conn->pi_.read_fd) poller_.remove(conn->pi_.write_fd);
    conns_.erase(conn->token_base_);
    live_.fetch_sub(1);
    bool schedule = false;
    {
      const std::lock_guard lock(conn->in_mutex_);
      conn->eof_ = true;
      if (!conn->worker_scheduled_ && !conn->finalized_) {
        conn->worker_scheduled_ = true;
        schedule = true;
      }
    }
    if (schedule) server_.submit_worker(conn);
  }

 private:
  void run() {
    std::vector<PollerEvent> events;
    while (!stopping_.load()) {
      process_mail();
      if (stopping_.load()) break;
      {
        // Park only with empty mailboxes; a producer that pushed after
        // process_mail sees sleeping_ == false and skips the wake, so the
        // re-check here is what keeps that mail from waiting out a sleep.
        const std::lock_guard lock(mail_mutex_);
        if (!adopt_mail_.empty() || !flush_mail_.empty()) continue;
        sleeping_ = true;
      }
      const int timeout = compute_timeout_ms();
      try {
        (void)poller_.wait(events, timeout);
      } catch (const std::exception&) {
        break;  // poller broke underneath us; server stop cleans up
      }
      {
        const std::lock_guard lock(mail_mutex_);
        sleeping_ = false;
      }
      obs::metrics().net_fanout_wakeups.add(1);
      for (const auto& event : events) dispatch(event);
      check_deadlines();
    }
  }

  void process_mail() {
    std::vector<std::shared_ptr<EventConn>> adopts;
    std::vector<std::shared_ptr<EventConn>> flushes;
    {
      const std::lock_guard lock(mail_mutex_);
      adopts.swap(adopt_mail_);
      flushes.swap(flush_mail_);
    }
    for (auto& conn : adopts) do_adopt(std::move(conn));
    for (auto& conn : flushes) {
      conn->clear_flush_pending();
      conn->flush(*this);
      maybe_retire(conn);
    }
  }

  void do_adopt(std::shared_ptr<EventConn> conn) {
    conn->mark_adopted(steady_now_ms());
    conns_.emplace(conn->token_base_, conn);
    conn->update_interest(*this);
    maybe_retire(conn);  // may already have been aborted in the mailbox
  }

  void dispatch(const PollerEvent& event) {
    const auto it = conns_.find(event.token & ~std::uint64_t{1});
    if (it == conns_.end()) return;
    auto conn = it->second;  // keep alive across retire/erase
    if ((event.token & 1) == 0) {
      if (event.readable) conn->handle_readable(*this);
      if ((event.writable || event.hangup) && conn->want_write_) conn->flush(*this);
    } else if (conn->want_write_) {
      // The write-signal fd (loopback transports) reports writability as
      // readability of a side eventfd.
      conn->flush(*this);
    }
    maybe_retire(conn);
  }

  /// Poll timeout to the soonest connection deadline (-1 = block).
  [[nodiscard]] int compute_timeout_ms() const {
    const auto now = steady_now_ms();
    std::uint64_t min_due = 0;
    for (const auto& [token, conn] : conns_) {
      const auto due = conn->next_deadline();
      if (due == 0) continue;
      if (min_due == 0 || due < min_due) min_due = due;
    }
    if (min_due == 0) return -1;
    if (min_due <= now) return 0;
    return static_cast<int>(std::min<std::uint64_t>(min_due - now, 60000));
  }

  void check_deadlines() {
    const auto now = steady_now_ms();
    due_.clear();
    // Two passes: on_deadline can retire (mutating conns_ mid-iteration).
    for (const auto& [token, conn] : conns_) {
      const auto due = conn->next_deadline();
      if (due != 0 && due <= now) due_.push_back(conn);
    }
    for (const auto& conn : due_) {
      conn->on_deadline(*this, now);
      maybe_retire(conn);
    }
    due_.clear();
  }

  Server& server_;
  Poller poller_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> live_{0};

  std::mutex mail_mutex_;
  std::vector<std::shared_ptr<EventConn>> adopt_mail_;
  std::vector<std::shared_ptr<EventConn>> flush_mail_;
  bool sleeping_ = false;  ///< Loop parked in the poller (mail_mutex_).

  // Loop-thread-only.
  std::unordered_map<std::uint64_t, std::shared_ptr<EventConn>> conns_;
  std::vector<std::shared_ptr<EventConn>> due_;  ///< Reused scratch.
};

// --------------------------------------------------------------- WorkerPool --

/// Fixed pool dispatching per-connection inbox drains. stop() drains the
/// queue before exiting: queued work includes finalize teardowns, and
/// skipping those would leak service subscriptions.
class Server::WorkerPool {
 public:
  explicit WorkerPool(std::size_t threads) : target_(threads) {}

  ~WorkerPool() { stop(); }

  void start() {
    for (std::size_t i = 0; i < target_; ++i) {
      threads_.emplace_back([this] { run(); });
    }
  }

  void submit(std::shared_ptr<EventConn> conn) {
    {
      const std::lock_guard lock(mutex_);
      queue_.push_back(std::move(conn));
    }
    cv_.notify_one();
  }

  void stop() {
    {
      const std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

 private:
  void run() {
    for (;;) {
      std::shared_ptr<EventConn> conn;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping and fully drained
        conn = std::move(queue_.front());
        queue_.pop_front();
      }
      conn->drain_inbox();
    }
  }

  const std::size_t target_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<EventConn>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

// ------------------------------------------------ EventConn definitions --
// Out-of-line because they drive the IoLoop, declared above them.

void Server::EventConn::enqueue(OutFrame frame) {
  bool overflow = false;
  {
    const std::lock_guard lock(out_mutex_);
    if (out_closed_) return;
    // Checked against what is *already* queued, so one frame larger than
    // the limit still goes out on an under-limit queue.
    if (out_bytes_ >= server_.config_.write_queue_bytes_limit) {
      overflow = true;
      out_closed_ = true;
      outq_.clear();
      out_bytes_ = 0;
    } else {
      out_bytes_ += frame.queued_bytes();
      outq_.push_back(std::move(frame));
      obs::metrics().net_write_queue_hwm.max_of(
          static_cast<std::int64_t>(outq_.size()));
    }
  }
  if (overflow) {
    obs::metrics().net_slow_disconnects.add(1);
    abort_connection();
  } else if (!flush_pending_.exchange(true)) {
    loop_->request_flush(self());
  }
}

void Server::EventConn::abort_connection() {
  // Must never block on (or call into) the service: overflow aborts fire
  // from inside publish/replay with the facade mutex held. The loop's
  // maybe_retire schedules the finalize worker that releases subscriptions.
  {
    const std::lock_guard lock(out_mutex_);
    out_closed_ = true;
    outq_.clear();
    out_bytes_ = 0;
  }
  aborted_.store(true);
  conn_->close();
  {
    const std::lock_guard lock(in_mutex_);
    eof_ = true;
  }
  loop_->request_flush(self());  // nudge the loop so it retires us
}

void Server::EventConn::handle_readable(IoLoop& loop) {
  if (read_done_ || stop_reading_.load() || read_paused_.load()) {
    update_interest(loop);
    return;
  }
  std::vector<InItem> items;
  bool eof = false;
  // Budgeted so one firehosing peer cannot monopolize the loop; the poller
  // is level-triggered, so leftover bytes re-report on the next wait.
  std::size_t budget = std::size_t{256} * 1024;
  while (budget > 0) {
    std::size_t n = 0;
    const auto cap = std::min(read_chunk_.size(), budget);
    const auto status = conn_->try_read(std::span(read_chunk_.data(), cap), n);
    if (status == IoStatus::kWouldBlock) break;
    if (status == IoStatus::kEof || n == 0) {
      eof = true;
      break;
    }
    last_rx_ms_.store(steady_now_ms());
    obs::metrics().net_bytes_in.add(n);
    budget -= n;
    try {
      frames_.append(std::span(read_chunk_.data(), n));
      for (auto frame = frames_.extract(); !frame.empty(); frame = frames_.extract()) {
        obs::metrics().net_frames_received.add(1);
        items.push_back({std::move(frame), false, {}});
      }
    } catch (const api::WireFormatError& e) {
      // Queued behind the frames decoded before it so they are still
      // answered; the stream itself is over.
      items.push_back({{}, true, e.what()});
      eof = true;
      break;
    }
  }
  if (eof) read_done_ = true;
  bool schedule = false;
  {
    const std::lock_guard lock(in_mutex_);
    for (auto& item : items) {
      inbox_bytes_ += sizeof(InItem) + item.frame.size();
      inbox_.push_back(std::move(item));
    }
    if (inbox_bytes_ >= kInboxPauseBytes) read_paused_.store(true);
    if (eof) eof_ = true;
    if (!worker_scheduled_ && !finalized_ && (!inbox_.empty() || eof_)) {
      worker_scheduled_ = true;
      schedule = true;
    }
  }
  update_interest(loop);
  if (schedule) server_.submit_worker(self());
}

void Server::EventConn::drain_inbox() {
  for (;;) {
    std::deque<InItem> batch;
    bool resume_reading = false;
    {
      const std::lock_guard lock(in_mutex_);
      if (finalized_) {
        inbox_.clear();
        worker_scheduled_ = false;
        return;
      }
      batch.swap(inbox_);
      inbox_bytes_ = 0;
      resume_reading = read_paused_.exchange(false);
    }
    // The loop re-registers read interest when it handles the flush mail.
    if (resume_reading) loop_->request_flush(self());
    for (auto& item : batch) {
      if (aborted_.load() || fatal_) break;
      if (item.framing_error) {
        send_error(0, api::ErrorCode::kBadRequest, item.error);
        fatal_ = true;
        break;
      }
      try {
        fatal_ = !handle_frame(item.frame);
      } catch (const api::WireFormatError& e) {
        // A well-framed frame whose payload does not decode ends the
        // connection exactly like a framing error.
        send_error(0, api::ErrorCode::kBadRequest, e.what());
        fatal_ = true;
      }
      if (fatal_) break;
    }
    bool do_finalize = false;
    {
      const std::lock_guard lock(in_mutex_);
      if (fatal_) stop_reading_.store(true);
      if (!fatal_ && !aborted_.load() && !inbox_.empty()) continue;  // more arrived
      const bool over = eof_ || fatal_ || aborted_.load();
      if (over && !finalized_) {
        finalized_ = true;
        do_finalize = true;
      }
      worker_scheduled_ = false;
    }
    if (do_finalize) finalize_teardown();
    return;
  }
}

void Server::EventConn::finalize_teardown() {
  stop_reading_.store(true);
  // The service must stop delivering into this connection before the tail
  // of the output queue drains out.
  release_subscriptions();
  {
    const std::lock_guard lock(out_mutex_);
    close_after_flush_ = true;
  }
  loop_->request_flush(self());
}

void Server::EventConn::flush(IoLoop& loop) {
  if (completed_.load() || aborted_.load()) return;
  bool peer_gone = false;
  bool drained_to_close = false;
  std::size_t frames_flushed = 0;
  auto& m = obs::metrics();
  for (;;) {
    if (!inflight_) {
      const std::lock_guard lock(out_mutex_);
      if (out_closed_) break;
      if (outq_.empty()) {
        if (close_after_flush_) {
          out_closed_ = true;
          drained_to_close = true;
        }
        break;
      }
      inflight_ = std::move(outq_.front());
      outq_.pop_front();
      out_bytes_ -= inflight_->queued_bytes();
      inflight_off_ = 0;
      if (inflight_->tail && inflight_->size() <= 2048) {
        // Small event frames (the fan-out steady state) flush as one
        // contiguous write: a ~100-byte memcpy here is cheaper than a
        // second transport round (lock + readiness signal, or syscall)
        // for the tail.
        auto& head = inflight_->head;
        head.reserve(inflight_->size());
        head.insert(head.end(), inflight_->tail->begin(), inflight_->tail->end());
        inflight_->tail = nullptr;
      }
    }
    const auto total = inflight_->size();
    std::span<const std::uint8_t> chunk;
    if (inflight_off_ < inflight_->head.size()) {
      chunk = std::span(inflight_->head).subspan(inflight_off_);
    } else {
      chunk = std::span(*inflight_->tail)
                  .subspan(inflight_off_ - inflight_->head.size());
    }
    std::size_t n = 0;
    const auto status = conn_->try_write(chunk, n);
    if (status == IoStatus::kWouldBlock) break;
    if (status == IoStatus::kEof) {
      peer_gone = true;
      break;
    }
    inflight_off_ += n;
    m.net_bytes_out.add(n);
    if (inflight_off_ == total) {
      m.net_frames_sent.add(1);
      ++frames_flushed;
      inflight_.reset();
    }
  }
  if (frames_flushed > 1) m.net_fanout_coalesced_writes.add(1);
  if (peer_gone) {
    inflight_.reset();
    abort_connection();
    return;
  }
  want_write_ = inflight_.has_value();
  update_interest(loop);
  if (drained_to_close) {
    // Everything queued before the close has been flushed: end our write
    // side so the client sees EOF after the tail.
    conn_->shutdown_write();
    completed_.store(true);
  }
}

void Server::EventConn::update_interest(IoLoop& loop) {
  if (done()) return;  // retirement deregisters
  const bool want_read = !read_done_ && !stop_reading_.load() && !read_paused_.load();
  if (reg_valid_ && want_read == reg_read_ && want_write_ == reg_write_) return;
  reg_valid_ = true;
  reg_read_ = want_read;
  reg_write_ = want_write_;
  auto& poller = loop.poller();
  if (pi_.read_fd == pi_.write_fd) {
    // One duplex fd (TCP): a single registration carries both interests.
    if (!want_read && !want_write_) {
      poller.remove(pi_.read_fd);
    } else {
      poller.set(pi_.read_fd, token_base_, want_read, want_write_);
    }
  } else {
    // Split signal fds (loopback): each is an eventfd that becomes
    // READABLE when its direction is ready, so both register read-side.
    // set() with no interest deregisters.
    poller.set(pi_.read_fd, token_base_, want_read, false);
    poller.set(pi_.write_fd, token_base_ | 1, want_write_, false);
  }
}

std::uint64_t Server::EventConn::next_deadline() const {
  std::uint64_t due = 0;
  const bool hello = hello_passed_.load();
  if (!hello && server_.config_.hello_timeout_ms > 0 && !read_done_) {
    due = adopt_ms_ + server_.config_.hello_timeout_ms;
  }
  if (hello && server_.config_.keepalive_interval_ms > 0) {
    const std::uint64_t keepalive_due =
        ping_outstanding_ ? ping_sent_ms_ + server_.config_.keepalive_timeout_ms
                          : last_rx_ms_.load() + server_.config_.keepalive_interval_ms;
    due = due == 0 ? keepalive_due : std::min(due, keepalive_due);
  }
  return due;
}

void Server::EventConn::on_deadline(IoLoop& loop, std::uint64_t now) {
  if (!hello_passed_.load() && server_.config_.hello_timeout_ms > 0 && !read_done_ &&
      now >= adopt_ms_ + server_.config_.hello_timeout_ms) {
    // Hello deadline: stop reading, flush anything queued, half-close.
    read_done_ = true;
    bool schedule = false;
    {
      const std::lock_guard lock(in_mutex_);
      eof_ = true;
      if (!worker_scheduled_ && !finalized_) {
        worker_scheduled_ = true;
        schedule = true;
      }
    }
    update_interest(loop);
    if (schedule) server_.submit_worker(self());
  }
  if (hello_passed_.load() && server_.config_.keepalive_interval_ms > 0) keepalive_check(now);
}

void Server::EventConn::keepalive_check(std::uint64_t now) {
  const auto last_rx = last_rx_ms_.load();
  if (ping_outstanding_) {
    if (last_rx >= ping_sent_ms_) {
      // Anything inbound since the probe proves the peer is alive.
      ping_outstanding_ = false;
      return;
    }
    if (now - ping_sent_ms_ >= server_.config_.keepalive_timeout_ms) {
      obs::metrics().net_keepalive_disconnects.add(1);
      abort_connection();
    }
    return;
  }
  if (now - last_rx < server_.config_.keepalive_interval_ms) return;
  ping_outstanding_ = true;
  ping_sent_ms_ = now;
  obs::metrics().net_keepalive_probes.add(1);
  // The probe goes through the queue: the loop owns the socket and a flush
  // is its only writer.
  enqueue({api::encode_ping({++ping_nonce_}), nullptr});
}

// ----------------------------------------------------------------- Server --

Server::Server(api::Service& service, std::shared_ptr<Listener> listener,
               ServerConfig config)
    : service_(service), listener_(std::move(listener)), config_(std::move(config)) {
  const auto loops = std::max<std::size_t>(1, config_.io_threads);
  loops_.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<IoLoop>(*this));
  }
  workers_ = std::make_unique<WorkerPool>(std::max<std::size_t>(1, config_.worker_threads));
  conns_collector_ = obs::Registry::global().add_collector(
      "bgpcu_net_open_connections", "Connections not yet torn down", {},
      [this] { return static_cast<double>(connection_count()); });
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_.exchange(true)) return;
  workers_->start();
  for (auto& loop : loops_) loop->start();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  for (;;) {
    std::unique_ptr<Connection> conn;
    try {
      conn = listener_->accept();
    } catch (const TransportError&) {
      // Hard accept failures (fd exhaustion under load, transient kernel
      // errors) must not take the daemon down; back off and keep serving
      // the connections that exist.
      if (stopping_.load()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    if (!conn) break;
    if (stopping_.load()) break;
    const auto pi = conn->poll_info();
    if (!pi.pollable()) {
      // No readiness fds (a loopback pipe whose eventfd creation failed):
      // no loop can serve it, so refuse it rather than let it stall.
      conn->close();
      continue;
    }
    const auto live = connection_count();
    const bool reject = live >= config_.max_connections;
    if (reject) {
      obs::metrics().net_connections_rejected.add(1);
      // Graceful rejection (read the hello, answer kBusy) costs live
      // connection state for up to hello_timeout_ms. Under a connection
      // flood that would grow without bound, so past a small overflow
      // margin the rejection turns abrupt: best-effort kBusy write,
      // immediate close, no connection state.
      if (live >= config_.max_connections + kGracefulRejectSlots) {
        (void)conn->write_all(
            api::encode_busy({0, config_.busy_retry_after_ms, "connection limit reached"}));
        conn->shutdown_write();
        conn->close();
        continue;
      }
    } else {
      obs::metrics().net_connections_accepted.add(1);
    }
    // Rejected connections (within the margin) are served like any other —
    // the first frame is answered with kBusy and the connection torn down —
    // so the shed is flushed before the close.
    auto& loop = *loops_[next_loop_++ % loops_.size()];
    const auto token_base = next_conn_id_.fetch_add(1) << 1;
    loop.adopt(
        std::make_shared<EventConn>(*this, std::move(conn), reject, pi, token_base, &loop));
  }
}

void Server::submit_worker(std::shared_ptr<EventConn> conn) {
  workers_->submit(std::move(conn));
}

void Server::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& loop : loops_) loop->stop();
  for (auto& loop : loops_) loop->join();
  // Workers drain before the leftover sweep: any queued finalize (which
  // releases subscriptions) runs to completion first, so the sweep's
  // release_subscriptions below is a no-op for those.
  workers_->stop();
  for (auto& loop : loops_) {
    for (const auto& conn : loop->drain_remaining()) {
      conn->abort_connection();  // loop is dead; the flush mail just sits
      conn->release_subscriptions();
    }
  }
}

std::size_t Server::connection_count() const {
  std::size_t live = 0;
  for (const auto& loop : loops_) live += loop->live();
  return live;
}

}  // namespace bgpcu::net
