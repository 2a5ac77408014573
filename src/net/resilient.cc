#include "net/resilient.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/wellknown.h"
#include "stream/delta.h"

namespace bgpcu::net {

namespace {

constexpr core::UsageClass kNoClass{};  // kNone/kNone: "absent from the view".

[[nodiscard]] std::chrono::milliseconds ms(std::uint64_t value) {
  return std::chrono::milliseconds(static_cast<std::int64_t>(value));
}

}  // namespace

std::uint64_t decorrelated_backoff(std::uint64_t prev_ms, const BackoffPolicy& policy,
                                   std::mt19937_64& rng) {
  const auto base = policy.initial_ms;
  const auto high = std::max(base + 1, prev_ms * 3);
  std::uniform_int_distribution<std::uint64_t> dist(base, high);
  return std::min(policy.cap_ms, dist(rng));
}

ResilientClient::ResilientClient(Connector connector, ResilientConfig config)
    : connector_(std::move(connector)),
      config_(std::move(config)),
      rng_(config_.backoff.seed) {}

void ResilientClient::ensure_session() {
  if (closed_) throw TransportError("resilient client is closed");
  std::uint64_t rounds = 0;
  while (!session_ || (subscribed_ && !sub_active_)) {
    // Guards the pathological cycle where the handshake succeeds but the
    // subscription setup keeps failing: each loop round is at least one
    // full connect, so the attempt budget still bounds it.
    if (config_.max_connect_attempts != 0 && rounds >= config_.max_connect_attempts) {
      throw RetriesExhausted("session setup retries exhausted after " +
                             std::to_string(rounds) + " rounds");
    }
    ++rounds;
    const bool reconnect = ever_connected_ && !session_;
    std::uint64_t attempts = 0;
    if (!session_) {
      attempts = connect_with_backoff();
      ever_connected_ = true;
      obs::metrics().net_client_connects.add();
      if (reconnect) obs::metrics().net_client_reconnects.add();
    }
    if (subscribed_ && !sub_active_) {
      const auto pos = out_events_.size();
      try {
        establish_subscription();
        sub_active_ = true;
      } catch (const BusyError& e) {
        obs::metrics().net_client_busy_deferrals.add();
        drop_connection();
        sleep_backoff(e.retry_after_ms());
        continue;
      } catch (const api::WireFormatError&) {
        drop_connection();
        continue;
      } catch (const TransportError&) {
        drop_connection();
        continue;
      }
      if (reconnect) {
        // Inserted *before* any kGap event the re-subscribe just queued, so
        // consumers always observe reconnect -> gap -> resumed deltas.
        Event ev;
        ev.kind = Event::Kind::kReconnected;
        ev.attempts = attempts;
        out_events_.insert(out_events_.begin() + static_cast<std::ptrdiff_t>(pos),
                           std::move(ev));
      }
    }
  }
}

std::uint64_t ResilientClient::connect_with_backoff() {
  std::uint64_t attempts = 0;
  for (;;) {
    // A ProtocolError (auth failure, version mismatch) is permanent and
    // propagates; everything else is retried after a backoff.
    std::optional<std::uint64_t> hint;
    try {
      ++attempts;
      auto conn = connector_();
      if (!conn) throw TransportError("connector returned no connection");
      conn->set_read_timeout(ms(config_.handshake_timeout_ms));
      session_.emplace(std::move(conn), Client::Options{config_.token});
      welcome_ = session_->welcome();
      prev_backoff_ms_ = 0;
      return attempts;
    } catch (const BusyError& e) {
      hint = e.retry_after_ms();
      obs::metrics().net_client_busy_deferrals.add();
    } catch (const api::WireFormatError&) {
    } catch (const TransportError&) {
    }
    if (config_.max_connect_attempts != 0 && attempts >= config_.max_connect_attempts) {
      throw RetriesExhausted("connect retries exhausted after " +
                             std::to_string(attempts) + " attempts");
    }
    sleep_backoff(hint);
  }
}

void ResilientClient::establish_subscription() {
  const std::optional<stream::Epoch> replay =
      last_seen_ ? std::optional<stream::Epoch>(*last_seen_ + 1) : initial_replay_from_;
  session_->set_read_timeout(ms(config_.handshake_timeout_ms));
  bool replay_complete = true;
  subscription_id_ = session_->subscribe(filter_, replay, &replay_complete);
  if (replay && !replay_complete) {
    obs::metrics().net_client_gap_resyncs.add();
    session_->set_read_timeout(ms(config_.request_deadline_ms));
    const auto resp = session_->query({.kind = api::QueryKind::kSnapshot});
    if (!resp.snapshot) throw TransportError("snapshot re-sync returned no snapshot");
    const stream::Epoch gap_from = *replay;
    // The snapshot is the published one, so the gap closes at its epoch: the
    // welcome's engine epoch can be ahead of it, and starting min_epoch_
    // past the published epoch would drop the next published delta.
    const stream::Epoch gap_to = resp.epoch;
    auto synth = synthesize_gap_delta(*resp.snapshot, gap_to);
    Event ev;
    ev.kind = Event::Kind::kGap;
    ev.gap_from = gap_from;
    ev.gap_to = gap_to;
    ev.delta.epoch = gap_to;
    ev.delta.changes = filter_.apply(synth);
    apply_changes(synth.changes);  // State catches up on the FULL diff.
    out_events_.push_back(std::move(ev));
    last_seen_ = gap_to;
    min_epoch_ = gap_to + 1;  // The replayed tail below this is lossy: drop it.
  } else {
    min_epoch_ = replay;  // Anything older is an overlap duplicate.
  }
  deliver_buffered();
}

api::QueryResponse ResilientClient::query(const api::QueryRequest& request) {
  using Clock = std::chrono::steady_clock;
  const bool has_deadline = config_.request_deadline_ms != 0;
  const auto deadline = Clock::now() + ms(config_.request_deadline_ms);
  const auto expired = [&] { return has_deadline && Clock::now() >= deadline; };
  for (;;) {
    // Checked per round, not just on entry: close() is terminal and must not
    // be retried around like a transport failure.
    if (closed_) throw TransportError("resilient client is closed");
    try {
      ensure_session();
      session_->set_read_timeout(ms(config_.request_deadline_ms));
      auto response = session_->query(request);
      deliver_buffered();
      return response;
    } catch (const RetriesExhausted&) {
      throw;
    } catch (const BusyError& e) {
      obs::metrics().net_client_busy_deferrals.add();
      // request_id 0 is connection-level: the server closes after sending it.
      if (e.busy().request_id == 0) drop_connection();
      if (expired()) throw;
      sleep_backoff(e.retry_after_ms());
    } catch (const api::WireFormatError&) {
      drop_connection();
      if (expired()) throw TransportError("request deadline expired");
    } catch (const TransportError&) {
      drop_connection();
      if (expired()) throw;
    }
  }
}

void ResilientClient::subscribe(api::SubscriptionFilter filter,
                                std::optional<stream::Epoch> replay_from) {
  if (subscribed_) {
    throw std::logic_error("ResilientClient maintains a single subscription");
  }
  subscribed_ = true;
  filter_ = std::move(filter);
  initial_replay_from_ = replay_from;
  ensure_session();
}

std::optional<ResilientClient::Event> ResilientClient::next_event() {
  for (;;) {
    if (!out_events_.empty()) {
      auto event = std::move(out_events_.front());
      out_events_.pop_front();
      return event;
    }
    if (closed_ || !subscribed_) return std::nullopt;
    ensure_session();
    // A reconnect inside ensure_session may have queued events (kReconnected,
    // kGap, replayed deltas), and a shed query may have left events on the
    // session. Surface those before blocking on the wire, or a quiet stream
    // would sit on them until the next keepalive or live delta.
    deliver_buffered();
    if (!out_events_.empty()) continue;
    const auto interval = config_.keepalive_interval_ms;
    session_->set_read_timeout(ms(interval));
    bool alive = false;
    try {
      // Without keepalive the read blocks forever, so false means EOF; with
      // it, false may just be an idle interval — probe before giving up.
      alive = session_->pump() || (interval != 0 && probe_alive());
    } catch (const api::WireFormatError&) {
      // A malformed frame, kBusy, kError or a frame of the wrong type ends
      // the connection like EOF does; the gap-free resume recovers.
    } catch (const BusyError&) {
    } catch (const ProtocolError&) {
    } catch (const TransportError&) {
    }
    if (!alive) drop_connection();
  }
}

void ResilientClient::deliver_buffered() {
  while (auto event = session_->buffered_event()) deliver_event(*event);
}

void ResilientClient::deliver_event(const api::EventFrame& event) {
  if (subscription_id_ != 0 && event.subscription_id != subscription_id_) return;
  if (min_epoch_ && event.delta.epoch < *min_epoch_) return;
  apply_changes(event.delta.changes);
  if (!last_seen_ || event.delta.epoch > *last_seen_) last_seen_ = event.delta.epoch;
  Event ev;
  ev.delta = event.delta;
  out_events_.push_back(std::move(ev));
}

void ResilientClient::apply_changes(const std::vector<stream::ClassChange>& changes) {
  for (const auto& change : changes) {
    if (change.after == kNoClass) {
      state_.erase(change.asn);
    } else {
      state_[change.asn] = change.after;
    }
  }
}

api::EpochDelta ResilientClient::synthesize_gap_delta(const core::InferenceResult& snap,
                                                      stream::Epoch epoch) const {
  // One composed ClassChange per AS whose class differs between our
  // materialized view and the snapshot, over the union of both key sets,
  // sorted by ASN like every engine-produced delta.
  std::vector<bgp::Asn> asns;
  asns.reserve(state_.size() + snap.counter_map().size());
  for (const auto& [asn, cls] : state_) asns.push_back(asn);
  for (const auto& [asn, counters] : snap.counter_map()) asns.push_back(asn);
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());

  api::EpochDelta delta;
  delta.epoch = epoch;
  for (const auto asn : asns) {
    const auto it = state_.find(asn);
    const auto before = it != state_.end() ? it->second : kNoClass;
    const auto after =
        snap.counter_map().contains(asn) ? snap.usage(asn) : kNoClass;
    if (before == after) continue;
    delta.changes.push_back({asn, before, after});
  }
  return delta;
}

bool ResilientClient::probe_alive() {
  session_->ping(++ping_nonce_);
  obs::metrics().net_client_pings.add();
  session_->set_read_timeout(ms(config_.keepalive_timeout_ms));
  return session_->pump();  // Any frame proves the peer alive, not just a kPong.
}

void ResilientClient::drop_connection() {
  if (session_) session_->close();
  session_.reset();
  sub_active_ = false;
}

void ResilientClient::close() {
  closed_ = true;
  drop_connection();
}

void ResilientClient::sleep_backoff(std::optional<std::uint64_t> floor_ms) {
  auto delay = decorrelated_backoff(prev_backoff_ms_, config_.backoff, rng_);
  if (floor_ms && *floor_ms > delay) delay = *floor_ms;
  prev_backoff_ms_ = delay;
  if (delay == 0) return;
  if (config_.sleep_fn) {
    config_.sleep_fn(ms(delay));
  } else {
    std::this_thread::sleep_for(ms(delay));
  }
}

}  // namespace bgpcu::net
