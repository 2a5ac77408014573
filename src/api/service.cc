#include "api/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "api/wire.h"
#include "obs/wellknown.h"

namespace bgpcu::api {

namespace {

/// A class-code side of a transition spec: "*" or a valid two-char code.
bool valid_code_spec(const std::string& spec) {
  return spec == "*" || SubscriptionFilter::valid_code(spec);
}

}  // namespace

bool SubscriptionFilter::valid_code(std::string_view code) noexcept {
  if (code.size() != 2) return false;
  const auto tag_ok = code[0] == 't' || code[0] == 's' || code[0] == 'u' || code[0] == 'n';
  const auto fwd_ok = code[1] == 'f' || code[1] == 'c' || code[1] == 'u' || code[1] == 'n';
  return tag_ok && fwd_ok;
}

SubscriptionFilter SubscriptionFilter::transition(const std::string& spec) {
  const auto arrow = spec.find("->");
  if (arrow == std::string::npos) {
    throw std::invalid_argument("transition spec needs FROM->TO, got '" + spec + "'");
  }
  SubscriptionFilter filter;
  filter.from = spec.substr(0, arrow);
  filter.to = spec.substr(arrow + 2);
  if (!valid_code_spec(filter.from) || !valid_code_spec(filter.to)) {
    throw std::invalid_argument("transition sides must be class codes or '*', got '" + spec +
                                "'");
  }
  return filter;
}

bool SubscriptionFilter::matches(const stream::ClassChange& change) const {
  if (!watch.empty() &&
      std::find(watch.begin(), watch.end(), change.asn) == watch.end()) {
    return false;
  }
  if (from != "*" && change.before.code() != from) return false;
  if (to != "*" && change.after.code() != to) return false;
  return true;
}

std::vector<stream::ClassChange> SubscriptionFilter::apply(const EpochDelta& delta) const {
  std::vector<stream::ClassChange> out;
  for (const auto& change : delta.changes) {
    if (matches(change)) out.push_back(change);
  }
  return out;
}

EventLog::EventLog(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

void EventLog::push(EpochDelta delta) {
  if (entries_.size() == capacity_) entries_.pop_front();
  entries_.push_back(std::move(delta));
}

std::vector<EpochDelta> EventLog::since(stream::Epoch from) const {
  std::vector<EpochDelta> out;
  for (const auto& entry : entries_) {
    if (entry.epoch >= from) out.push_back(entry);
  }
  return out;
}

std::optional<stream::Epoch> EventLog::oldest_epoch() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.front().epoch;
}

Service::Service(ServiceConfig config)
    : config_(std::move(config)),
      engine_(config_.stream),
      published_(std::make_shared<const core::InferenceResult>(
          core::CounterMap{}, config_.stream.engine.thresholds, 0)),
      log_(config_.event_log_capacity) {
  // The engine's constructor already forced the obs catalog, so no facade-
  // locked path ever interns (see the matching note in StreamEngine).
  auto& registry = obs::Registry::global();
  subs_collector_ = registry.add_collector(
      "bgpcu_api_subscriptions", "Registered subscription callbacks", {}, [this] {
        const std::lock_guard lock(facade_mutex_);
        return static_cast<double>(subscriptions_.size());
      });
  log_collector_ = registry.add_collector(
      "bgpcu_api_event_log_entries", "Epoch batches retained for replay", {}, [this] {
        const std::lock_guard lock(facade_mutex_);
        return static_cast<double>(log_.size());
      });
}

stream::IngestStats Service::ingest(core::Dataset batch) {
  return engine_.ingest(std::move(batch));
}

stream::Epoch Service::advance_epoch() { return engine_.advance_epoch(); }

stream::Epoch Service::epoch() const { return engine_.epoch(); }

QueryResponse Service::query(const QueryRequest& request) const {
  auto& m = obs::metrics();
  QueryResponse response;
  response.kind = request.kind;
  switch (request.kind) {
    case QueryKind::kClassOf: {
      m.api_query_class_of.add(1);
      const auto snapshot = engine_.snapshot();
      response.asn_class = AsnClass{request.asn, snapshot->usage(request.asn),
                                    snapshot->counters(request.asn)};
      break;
    }
    case QueryKind::kSnapshot:
      m.api_query_snapshot.add(1);
      response.snapshot = engine_.snapshot();
      break;
    case QueryKind::kLiveCounters: {
      m.api_query_live_counters.add(1);
      const auto counters = engine_.live_counters(request.asn);
      const auto usage =
          core::classify(counters, config_.stream.engine.thresholds);
      response.asn_class = AsnClass{request.asn, usage, counters};
      break;
    }
    case QueryKind::kStats: {
      m.api_query_stats.add(1);
      ServiceStats stats;
      stats.epoch = engine_.epoch();
      stats.live_tuples = engine_.live_tuples();
      stats.evicted_total = engine_.evicted_total();
      stats.shards = engine_.config().shards;
      stats.window_epochs = engine_.config().window_epochs;
      stats.subscriptions = subscription_count();
      stats.snapshot_sweeps = m.snapshot_sweeps.value();
      stats.snapshot_cache_hits = m.snapshot_cache_hits.value();
      stats.index_deltas_applied = m.index_deltas_applied.value();
      stats.index_compactions = m.index_compactions.value();
      stats.index_rebuilds = m.index_rebuilds.value();
      stats.locked_ns_last = static_cast<std::uint64_t>(m.snapshot_locked_last_ns.value());
      stats.locked_ns_total = m.snapshot_locked_ns.sum();
      response.stats = stats;
      break;
    }
    case QueryKind::kMetrics:
      // Counted before the scrape so the response's own series includes this
      // query — a scrape that doesn't count itself under-reports by one
      // forever.
      m.api_query_metrics.add(1);
      response.metrics = obs::Registry::global().collect();
      break;
    case QueryKind::kHistory: {
      m.api_query_history.add(1);
      // The provider is copied out so its (possibly slow) disk reads run
      // without holding the facade mutex.
      HistoryProvider provider;
      {
        const std::lock_guard lock(facade_mutex_);
        provider = history_provider_;
      }
      std::vector<HistoryPoint> points;
      if (provider) {
        // Sanitize whatever the provider returned into the response
        // invariant: strictly ascending epochs, class changes only.
        for (auto& point : provider(request.asn)) {
          if (!points.empty() && (point.epoch <= points.back().epoch ||
                                  point.usage == points.back().usage)) {
            continue;
          }
          points.push_back(point);
        }
      }
      // Always end the series at "now": the live class closes the evolution
      // whether or not any retained checkpoint covers this AS.
      const auto snapshot = engine_.snapshot();
      const auto usage = snapshot->usage(request.asn);
      const auto now = engine_.epoch();
      if (points.empty()) {
        points.push_back({now, usage});
      } else if (!(points.back().usage == usage)) {
        if (points.back().epoch >= now) {
          points.back().usage = usage;  // same epoch, newer truth
        } else {
          points.push_back({now, usage});
        }
      }
      response.history = std::move(points);
      break;
    }
  }
  return response;
}

std::vector<stream::ClassChange> Service::apply_subscription(const Subscription& subscription,
                                                             const EpochDelta& delta) {
  const auto& filter = subscription.filter;
  std::vector<stream::ClassChange> out;
  for (const auto& change : delta.changes) {
    if (!subscription.sorted_watch.empty() &&
        !std::binary_search(subscription.sorted_watch.begin(),
                            subscription.sorted_watch.end(), change.asn)) {
      continue;
    }
    if (filter.from != "*" && change.before.code() != filter.from) continue;
    if (filter.to != "*" && change.after.code() != filter.to) continue;
    out.push_back(change);
  }
  return out;
}

EpochDelta Service::publish() {
  // Deliveries to make once the facade mutex is released — callbacks may
  // re-enter subscribe/unsubscribe. A plain subscription carries its decoded
  // delta; an encoded one carries the shared serialized payload.
  struct Delivery {
    SubscriptionCallback callback;
    EncodedEventSink sink;
    EpochDelta decoded;
    EncodedEventPtr encoded;
  };
  std::vector<Delivery> dispatch;
  EpochDelta delta;
  {
    const std::lock_guard lock(facade_mutex_);
    auto current = engine_.snapshot();
    delta.epoch = engine_.epoch();
    delta.changes = stream::diff_classifications(*published_, *current);
    published_ = std::move(current);
    if (!delta.changes.empty()) {
      log_.push(delta);
      // Serialize-once cache for encoded subscriptions: subscriptions with
      // equal filters see identical filtered batches, so they share one
      // encoded buffer. Keyed by filter equality; linear scan is fine — the
      // massive-fan-out case is many subscribers over few distinct filters.
      std::vector<std::pair<const SubscriptionFilter*, EncodedEventPtr>> encoded_cache;
      auto& m = obs::metrics();
      for (const auto& sub : subscriptions_) {
        if (sub.encoded_sink) {
          EncodedEventPtr buffer;
          bool cached = false;
          for (const auto& [filter, entry] : encoded_cache) {
            if (*filter == sub.filter) {
              buffer = entry;
              cached = true;
              break;
            }
          }
          if (!cached) {
            auto filtered = apply_subscription(sub, delta);
            if (!filtered.empty()) {
              buffer = std::make_shared<const std::vector<std::uint8_t>>(
                  encode_event_payload(EpochDelta{delta.epoch, std::move(filtered)}));
              m.net_fanout_encodes.add(1);
            }
            // Non-matching filters are cached too (as null), so a thousand
            // subscribers on a filter nothing passes cost one evaluation.
            encoded_cache.emplace_back(&sub.filter, buffer);
          } else if (buffer) {
            m.net_fanout_buffer_reuses.add(1);
          }
          if (!buffer) continue;  // this filter passes nothing this epoch
          dispatch.push_back({nullptr, sub.encoded_sink, {}, buffer});
        } else {
          auto filtered = apply_subscription(sub, delta);
          if (filtered.empty()) continue;
          dispatch.push_back(
              {sub.callback, nullptr, EpochDelta{delta.epoch, std::move(filtered)}, nullptr});
        }
      }
    }
  }
  auto& m = obs::metrics();
  m.api_publishes.add(1);
  if (!delta.changes.empty()) m.api_changes_published.add(delta.changes.size());
  if (!dispatch.empty()) m.api_events_dispatched.add(dispatch.size());
  for (auto& d : dispatch) {
    if (d.sink) {
      d.sink(delta.epoch, d.encoded);
    } else {
      d.callback(d.decoded);
    }
  }
  return delta;
}

SubscriptionId Service::subscribe(SubscriptionFilter filter, SubscriptionCallback callback,
                                  std::optional<stream::Epoch> replay_from,
                                  bool* replay_complete) {
  return subscribe_impl(std::move(filter), std::move(callback), nullptr, replay_from,
                        replay_complete);
}

SubscriptionId Service::subscribe_encoded(SubscriptionFilter filter, EncodedEventSink sink,
                                          std::optional<stream::Epoch> replay_from,
                                          bool* replay_complete) {
  return subscribe_impl(std::move(filter), nullptr, std::move(sink), replay_from,
                        replay_complete);
}

SubscriptionId Service::subscribe_impl(SubscriptionFilter filter, SubscriptionCallback callback,
                                       EncodedEventSink sink,
                                       std::optional<stream::Epoch> replay_from,
                                       bool* replay_complete) {
  const std::lock_guard lock(facade_mutex_);
  if (replay_complete) {
    // Coverage is decided under the same mutex that delivers the replay: the
    // log's oldest retained epoch must not exceed the requested start (an
    // empty log means nothing was ever published, which is full coverage).
    const auto oldest = log_.oldest_epoch();
    *replay_complete = !replay_from || !oldest || *oldest <= *replay_from;
  }
  const SubscriptionId id = next_id_++;
  Subscription subscription{id, std::move(filter), {}, std::move(callback), std::move(sink)};
  subscription.sorted_watch = subscription.filter.watch;
  std::sort(subscription.sorted_watch.begin(), subscription.sorted_watch.end());
  subscription.sorted_watch.erase(
      std::unique(subscription.sorted_watch.begin(), subscription.sorted_watch.end()),
      subscription.sorted_watch.end());
  // Replay is delivered while still holding the facade mutex, *before* the
  // subscription becomes visible to publishers: a concurrent publish either
  // ran earlier (its batch is in the log and replays here) or blocks on the
  // mutex and delivers after — historical epochs can never arrive after a
  // newer live one. The price: a replay delivery must not call back into
  // the Service (live deliveries from publish() remain re-entrant-safe).
  if (replay_from) {
    obs::metrics().api_replays.add(1);
    for (const auto& entry : log_.since(*replay_from)) {
      auto filtered = apply_subscription(subscription, entry);
      if (filtered.empty()) continue;
      if (subscription.encoded_sink) {
        // Replay buffers are per-subscriber (no concurrent twin to share
        // with), but the sink contract — shared immutable payload bytes —
        // is identical to the live path.
        obs::metrics().net_fanout_encodes.add(1);
        subscription.encoded_sink(
            entry.epoch, std::make_shared<const std::vector<std::uint8_t>>(encode_event_payload(
                             EpochDelta{entry.epoch, std::move(filtered)})));
      } else {
        subscription.callback(EpochDelta{entry.epoch, std::move(filtered)});
      }
    }
  }
  subscriptions_.push_back(std::move(subscription));
  return id;
}

bool Service::unsubscribe(SubscriptionId id) {
  const std::lock_guard lock(facade_mutex_);
  const auto it = std::find_if(subscriptions_.begin(), subscriptions_.end(),
                               [id](const Subscription& s) { return s.id == id; });
  if (it == subscriptions_.end()) return false;
  subscriptions_.erase(it);
  return true;
}

std::size_t Service::subscription_count() const {
  const std::lock_guard lock(facade_mutex_);
  return subscriptions_.size();
}

std::vector<EpochDelta> Service::replay(stream::Epoch from) const {
  obs::metrics().api_replays.add(1);
  const std::lock_guard lock(facade_mutex_);
  return log_.since(from);
}

std::optional<stream::Epoch> Service::replay_horizon() const {
  const std::lock_guard lock(facade_mutex_);
  return log_.oldest_epoch();
}

void Service::set_history_provider(HistoryProvider provider) {
  const std::lock_guard lock(facade_mutex_);
  history_provider_ = std::move(provider);
}

void Service::restore_engine(stream::EngineState state) {
  engine_.restore_state(std::move(state));
}

void Service::preload_events(std::vector<EpochDelta> deltas) {
  const std::lock_guard lock(facade_mutex_);
  for (auto& delta : deltas) {
    if (!delta.changes.empty()) log_.push(std::move(delta));
  }
}

void Service::rebaseline() {
  // Snapshot first: taking the engine's exclusive lock while holding the
  // facade mutex matches publish()'s lock order.
  const std::lock_guard lock(facade_mutex_);
  published_ = engine_.snapshot();
}

}  // namespace bgpcu::api
