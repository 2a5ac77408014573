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
      frames_(config_.max_frame_payload),
      rng_(config_.backoff.seed) {}

void ResilientClient::ensure_session() {
  if (closed_) throw TransportError("resilient client is closed");
  std::uint64_t rounds = 0;
  while (!conn_ || (subscribed_ && !sub_active_)) {
    // Guards the pathological cycle where the handshake succeeds but the
    // subscription setup keeps failing: each loop round is at least one
    // full connect, so the attempt budget still bounds it.
    if (config_.max_connect_attempts != 0 && rounds >= config_.max_connect_attempts) {
      throw RetriesExhausted("session setup retries exhausted after " +
                             std::to_string(rounds) + " rounds");
    }
    ++rounds;
    const bool reconnect = ever_connected_ && !conn_;
    std::uint64_t attempts = 0;
    if (!conn_) {
      attempts = connect_with_backoff();
      ever_connected_ = true;
      ++stats_.connects;
      obs::metrics().net_client_connects.add();
      if (reconnect) {
        ++stats_.reconnects;
        obs::metrics().net_client_reconnects.add();
      }
    }
    if (subscribed_ && !sub_active_) {
      const auto pos = out_events_.size();
      try {
        establish_subscription();
        sub_active_ = true;
      } catch (const BusyError& e) {
        ++stats_.busy_deferrals;
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
    std::optional<std::uint64_t> hint;
    try {
      ++attempts;
      ++stats_.connect_attempts;
      auto conn = connector_();
      if (!conn) throw TransportError("connector returned no connection");
      conn_ = std::move(conn);
      frames_ = FrameBuffer(config_.max_frame_payload);
      handshake();
      prev_backoff_ms_ = 0;
      return attempts;
    } catch (const ProtocolError&) {
      drop_connection();
      throw;  // Auth failure or version mismatch: permanent.
    } catch (const BusyError& e) {
      drop_connection();
      hint = e.retry_after_ms();
      ++stats_.busy_deferrals;
      obs::metrics().net_client_busy_deferrals.add();
    } catch (const api::WireFormatError&) {
      drop_connection();
    } catch (const TransportError&) {
      drop_connection();
    }
    if (config_.max_connect_attempts != 0 && attempts >= config_.max_connect_attempts) {
      throw RetriesExhausted("connect retries exhausted after " +
                             std::to_string(attempts) + " attempts");
    }
    sleep_backoff(hint);
  }
}

void ResilientClient::handshake() {
  // Mirror net::Client: the server may reject-and-hang-up before our hello
  // lands, and its answer is still readable after the failed write.
  try {
    send(api::encode_hello({api::kProtocolVersion, config_.token}));
  } catch (const TransportError&) {
  }
  std::vector<api::EventFrame> none;  // nothing is subscribed before the welcome
  welcome_ = api::decode_welcome(
      await(api::FrameType::kWelcome, config_.handshake_timeout_ms, none));
}

std::vector<std::uint8_t> ResilientClient::await(api::FrameType want, std::uint64_t timeout_ms,
                                                 std::vector<api::EventFrame>& held) {
  for (;;) {
    auto frame = read_frame(ms(timeout_ms));
    if (frame.empty()) {
      throw TransportError("connection closed awaiting frame type " +
                           std::to_string(static_cast<int>(want)));
    }
    const auto type = api::peek_frame_type(frame);
    if (type == want) return frame;
    switch (type) {
      case api::FrameType::kEvent:
        held.push_back(api::decode_event(frame));
        break;
      case api::FrameType::kPing:
        send(api::encode_ping(api::decode_ping(frame), api::FrameType::kPong));
        break;
      case api::FrameType::kPong:
        break;
      case api::FrameType::kBusy:
        throw BusyError(api::decode_busy(frame));
      case api::FrameType::kError:
        throw ProtocolError(api::decode_error(frame));
      default:
        throw TransportError("unexpected frame type " +
                             std::to_string(static_cast<int>(type)) + " awaiting type " +
                             std::to_string(static_cast<int>(want)));
    }
  }
}

void ResilientClient::establish_subscription() {
  const std::optional<stream::Epoch> replay =
      last_seen_ ? std::optional<stream::Epoch>(*last_seen_ + 1) : initial_replay_from_;
  const auto id = next_request_id_++;
  send(api::encode_subscribe({id, filter_, replay}));
  std::vector<api::EventFrame> held;
  const auto ack = api::decode_subscribed(
      await(api::FrameType::kSubscribed, config_.handshake_timeout_ms, held));
  if (ack.request_id != id) throw TransportError("subscribe ack for wrong request id");
  subscription_id_ = ack.subscription_id;
  if (replay && !ack.replay_complete) {
    ++stats_.gap_resyncs;
    obs::metrics().net_client_gap_resyncs.add();
    api::QueryRequest req;
    req.kind = api::QueryKind::kSnapshot;
    const auto resp = query_on_conn(req, held);
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
  for (const auto& event : held) deliver_event(event);
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
      std::vector<api::EventFrame> held;
      auto response = query_on_conn(request, held);
      for (const auto& event : held) deliver_event(event);
      return response;
    } catch (const RetriesExhausted&) {
      throw;
    } catch (const BusyError& e) {
      ++stats_.busy_deferrals;
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

api::QueryResponse ResilientClient::query_on_conn(const api::QueryRequest& request,
                                                  std::vector<api::EventFrame>& held) {
  const auto id = next_request_id_++;
  send(api::encode_request({id, request}));
  auto response =
      api::decode_response(await(api::FrameType::kResponse, config_.request_deadline_ms, held));
  if (response.request_id != id) throw TransportError("response id does not match request");
  return std::move(response.response);
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
    // kGap, replayed deltas). Surface those before blocking on the wire, or a
    // quiet stream would sit on them until the next keepalive or live delta.
    if (!out_events_.empty()) continue;
    const bool keepalive = config_.keepalive_interval_ms != 0;
    std::vector<std::uint8_t> frame;
    try {
      frame = read_frame(ms(keepalive ? config_.keepalive_interval_ms : 0));
    } catch (const api::WireFormatError&) {
      drop_connection();
      continue;
    }
    if (frame.empty()) {
      // Without keepalive the read blocks forever, so empty means EOF; with
      // it, empty may just be an idle interval — probe before giving up.
      if (!keepalive || !probe_alive()) drop_connection();
      continue;
    }
    try {
      dispatch_stream_frame(frame);
    } catch (const api::WireFormatError&) {
      drop_connection();
    } catch (const TransportError&) {
      drop_connection();
    }
  }
}

void ResilientClient::dispatch_stream_frame(const std::vector<std::uint8_t>& frame) {
  switch (api::peek_frame_type(frame)) {
    case api::FrameType::kEvent:
      deliver_event(api::decode_event(frame));
      break;
    case api::FrameType::kPing:
      send(api::encode_ping(api::decode_ping(frame), api::FrameType::kPong));
      break;
    case api::FrameType::kPong:
      (void)api::decode_ping(frame, api::FrameType::kPong);
      break;
    case api::FrameType::kBusy: {
      // Connection-level shed: the server closes next; reconnect via the
      // handshake path (which honors the retry-after hint it will resend).
      const auto busy = api::decode_busy(frame);
      if (busy.request_id == 0) drop_connection();
      break;
    }
    case api::FrameType::kError: {
      const auto err = api::decode_error(frame);
      if (err.request_id == 0) drop_connection();
      break;  // Request-level errors on the stream are stale; ignore.
    }
    default:
      drop_connection();
      break;
  }
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
  try {
    api::PingFrame ping;
    ping.nonce = ++ping_nonce_;
    send(api::encode_ping(ping));
    ++stats_.pings_sent;
    obs::metrics().net_client_pings.add();
    const auto frame = read_frame(ms(config_.keepalive_timeout_ms));
    if (frame.empty()) return false;
    dispatch_stream_frame(frame);  // Any frame proves liveness, not just kPong.
    return conn_ != nullptr;
  } catch (const api::WireFormatError&) {
    return false;
  } catch (const TransportError&) {
    return false;
  }
}

void ResilientClient::drop_connection() {
  if (conn_) conn_->close();
  conn_.reset();
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

std::vector<std::uint8_t> ResilientClient::read_frame(std::chrono::milliseconds timeout) {
  if (!conn_) throw TransportError("not connected");
  conn_->set_read_timeout(timeout);
  if (chunk_.empty()) chunk_.resize(16384);
  for (;;) {
    auto frame = frames_.extract();
    if (!frame.empty()) return frame;
    const auto n = conn_->read_some(chunk_);
    if (n == 0) return {};
    frames_.append(std::span(chunk_.data(), n));
  }
}

void ResilientClient::send(const std::vector<std::uint8_t>& frame) {
  if (!conn_ || !conn_->write_all(frame)) {
    throw TransportError("connection closed while sending");
  }
}

}  // namespace bgpcu::net
