// net::ResilientClient — the reconnecting, resume-from-epoch consumer for
// long-running subscribers (bgpcu_query watch, monitors tailing the class-
// change feed). It runs one net::Client session per connection it makes
// (net/client.h is the only code for the client side of a connection) and
// keeps only the policy:
//
//   - capped exponential backoff with decorrelated jitter between connect
//     attempts, honoring the server's kBusy retry-after hint as a floor;
//   - gap-free subscription resume: on reconnect it re-subscribes with
//     replay_from = last_seen_epoch + 1 and trusts the ack's
//     replay_complete flag (computed atomically with the replay inside the
//     server's Service) to learn whether the event log still covered that
//     epoch. When the replay horizon has passed it, the client re-syncs
//     from the published snapshot and emits a kGap event that closes at
//     that snapshot's epoch and carries one synthesized catch-up delta,
//     instead of silently dropping changes;
//   - deadlines: on the handshake and subscribe ack, and per request on
//     query(), which retries across reconnects and busy sheds until its
//     deadline expires;
//   - optional client-side keepalive: an idle subscription stream is
//     probed with kPing so a dead link is detected instead of blocking
//     next_event() forever. The server's own probes are answered always.
//
// Its connects, reconnects, gap re-syncs, busy deferrals and probes are
// counted in the registry (bgpcu_net_client_*); per-client facts are in
// the event stream (kReconnected carries its dial count, each re-sync is
// one kGap).
//
// It speaks protocol v4 only: a server of another version refuses the
// hello by name, which surfaces as a permanent ProtocolError.
//
// Single-threaded like net::Client: call it from one thread. Reconnection
// happens lazily inside query()/next_event(), never on a background thread.
#ifndef BGPCU_NET_RESILIENT_H
#define BGPCU_NET_RESILIENT_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "core/classifier.h"
#include "net/client.h"
#include "net/transport.h"

namespace bgpcu::net {

/// The configured connect-attempt budget ran out. Distinct from plain
/// TransportError so callers (bgpcu_query) can map it to the
/// connect-failure exit code instead of retrying forever.
class RetriesExhausted : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Capped exponential backoff with decorrelated jitter (each delay is drawn
/// uniformly from [initial, 3 * previous], clamped to cap) — reconnect
/// storms from many clients decorrelate instead of thundering in lockstep.
struct BackoffPolicy {
  std::uint64_t initial_ms = 100;
  std::uint64_t cap_ms = 10'000;
  std::uint64_t seed = 1;  ///< Jitter RNG seed; fix it for deterministic tests.
};

/// Next backoff delay. `prev_ms` is the previous delay (0 on the first
/// failure). Pure given the RNG state — tests drive it with a fixed seed.
[[nodiscard]] std::uint64_t decorrelated_backoff(std::uint64_t prev_ms,
                                                 const BackoffPolicy& policy,
                                                 std::mt19937_64& rng);

struct ResilientConfig {
  std::string token;
  BackoffPolicy backoff;
  /// Consecutive failed connect attempts before giving up (RetriesExhausted).
  /// 0 = retry forever.
  std::uint64_t max_connect_attempts = 0;
  /// Deadline for the welcome and the subscribe ack after a connect; a
  /// listener that accepts but never speaks cannot hang the client.
  /// 0 disables.
  std::uint64_t handshake_timeout_ms = 5000;
  /// Overall deadline for one query() call, spanning reconnects and busy
  /// deferrals. 0 disables (retry until a permanent error).
  std::uint64_t request_deadline_ms = 0;
  /// When > 0, next_event() probes an idle stream with kPing after this much
  /// silence; an unanswered probe (keepalive_timeout_ms) reconnects.
  std::uint64_t keepalive_interval_ms = 0;
  std::uint64_t keepalive_timeout_ms = 3000;
  /// Backoff sleep hook; tests inject a recorder to run without wall-clock
  /// delays. Default: std::this_thread::sleep_for.
  std::function<void(std::chrono::milliseconds)> sleep_fn;
};

class ResilientClient {
 public:
  /// Dials one new transport connection; called for every (re)connect
  /// attempt. Throw TransportError on failure.
  using Connector = std::function<std::unique_ptr<Connection>()>;

  struct Event {
    enum class Kind : std::uint8_t {
      kDelta,        ///< One live or replayed epoch delta, as published.
      kGap,          ///< Replay horizon passed the resume epoch: `delta` is a
                     ///< synthesized catch-up diff covering [gap_from, gap_to].
      kReconnected,  ///< The link was re-established (`attempts` dials used).
    };
    Kind kind = Kind::kDelta;
    api::EpochDelta delta;
    stream::Epoch gap_from = 0;
    stream::Epoch gap_to = 0;
    std::uint64_t attempts = 0;
  };

  ResilientClient(Connector connector, ResilientConfig config);

  /// Connects (if needed) and runs one query with retry/deadline semantics.
  /// Throws ProtocolError on a permanent server answer (auth failure, bad
  /// request), BusyError/TransportError once the deadline or attempt budget
  /// is exhausted. A BusyError (net/client.h) is otherwise retried
  /// internally, honoring its retry-after hint.
  [[nodiscard]] api::QueryResponse query(const api::QueryRequest& request);

  /// Registers the (single) subscription this client maintains across
  /// reconnects and connects immediately. `replay_from` seeds the first
  /// subscribe; after any reconnect the client resumes from its own
  /// last-seen epoch + 1.
  void subscribe(api::SubscriptionFilter filter,
                 std::optional<stream::Epoch> replay_from = std::nullopt);

  /// The next subscription event, reconnecting and re-syncing as needed.
  /// Blocks until an event arrives; nullopt only when no subscription is
  /// registered or the client was close()d. Throws like query() on
  /// permanent failures.
  [[nodiscard]] std::optional<Event> next_event();

  /// Handshake result of the current/last connection.
  [[nodiscard]] const api::WelcomeFrame& welcome() const noexcept { return welcome_; }

  /// Epoch of the newest delta delivered (or covered by a gap re-sync).
  [[nodiscard]] std::optional<stream::Epoch> last_seen_epoch() const noexcept {
    return last_seen_;
  }

  /// The client's materialized ASN -> class view, folded from every
  /// delivered delta and gap re-sync. ASes classified none/none are absent.
  [[nodiscard]] const std::map<bgp::Asn, core::UsageClass>& class_state() const noexcept {
    return state_;
  }

  /// Drops the connection and stops reconnecting; next_event() returns
  /// nullopt from now on.
  void close();

 private:
  void ensure_session();
  /// Dials and handshakes until a session is up; returns the attempts
  /// used. Throws ProtocolError (permanent) or RetriesExhausted.
  std::uint64_t connect_with_backoff();
  /// (Re-)issues the subscribe on the current session, resuming from
  /// last_seen_ + 1 and running the snapshot re-sync when the ack reports
  /// the replay horizon passed it.
  void establish_subscription();
  /// Delivers the events the session buffered while it awaited a reply.
  void deliver_buffered();
  void deliver_event(const api::EventFrame& event);
  void apply_changes(const std::vector<stream::ClassChange>& changes);
  [[nodiscard]] api::EpochDelta synthesize_gap_delta(const core::InferenceResult& snap,
                                                     stream::Epoch epoch) const;
  /// Pings the session and reads one frame within keepalive_timeout_ms:
  /// true when one arrived and was handled.
  bool probe_alive();
  void drop_connection();
  void sleep_backoff(std::optional<std::uint64_t> floor_ms);

  Connector connector_;
  ResilientConfig config_;
  std::optional<Client> session_;
  api::WelcomeFrame welcome_;  ///< The last session's, kept past its drop.
  std::mt19937_64 rng_;
  std::uint64_t prev_backoff_ms_ = 0;
  bool closed_ = false;
  bool ever_connected_ = false;

  bool subscribed_ = false;
  bool sub_active_ = false;  ///< Subscription live on the *current* session.
  api::SubscriptionFilter filter_;
  std::optional<stream::Epoch> initial_replay_from_;
  std::uint64_t subscription_id_ = 0;
  std::optional<stream::Epoch> last_seen_;
  /// Deltas below this epoch are replay duplicates of state we already
  /// hold (resume overlap or snapshot coverage) and are dropped.
  std::optional<stream::Epoch> min_epoch_;
  std::map<bgp::Asn, core::UsageClass> state_;
  std::deque<Event> out_events_;

  std::uint64_t ping_nonce_ = 0;
};

}  // namespace bgpcu::net

#endif  // BGPCU_NET_RESILIENT_H
