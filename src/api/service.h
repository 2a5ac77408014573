// The service facade: the library's public surface for programmatic
// consumers (anomaly detectors, TE tooling, network front ends). A Service
// owns a stream::StreamEngine and exposes everything a caller needs —
// ingest, epoch control, a typed query API, and a filtered subscription feed
// of class transitions — so callers never touch engine internals. The
// subscription feed delivers exactly the `stream::diff_classifications`
// sequence over successively published snapshots (the correctness contract,
// property-tested in tests/api/test_service_property.cc), batched per epoch
// and retained in a ring buffer so late subscribers can replay recent
// history.
#ifndef BGPCU_API_SERVICE_H
#define BGPCU_API_SERVICE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "stream/delta.h"
#include "stream/engine.h"

namespace bgpcu::api {

/// Service tuning: the wrapped engine's knobs plus facade-level retention.
struct ServiceConfig {
  stream::StreamConfig stream;  ///< Shards, window, thresholds.
  /// Published epoch batches the event log retains for replay. Clamped to
  /// >= 1; older batches fall off the ring.
  std::size_t event_log_capacity = 64;
};

/// What a QueryRequest asks for. Values are wire-stable (see api/wire.h).
enum class QueryKind : std::uint8_t {
  kClassOf = 1,       ///< Swept class + counters for one AS.
  kSnapshot = 2,      ///< Full InferenceResult over the live tuple set.
  kLiveCounters = 3,  ///< Real-time peer-column evidence for one AS (no sweep).
  kStats = 4,         ///< Engine/service health counters.
  kMetrics = 5,       ///< Full observability scrape (obs::Registry::collect).
  kHistory = 6,       ///< Class evolution of one AS across retained epochs.
};

/// A single typed request against the service.
struct QueryRequest {
  QueryKind kind = QueryKind::kStats;
  bgp::Asn asn = 0;  ///< Meaningful for kClassOf / kLiveCounters / kHistory.

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

/// One point in an AS's class evolution (QueryKind::kHistory): the class the
/// AS held as of `epoch`. A response's points are strictly ascending in
/// epoch and consecutive points always differ in class.
struct HistoryPoint {
  stream::Epoch epoch = 0;
  core::UsageClass usage;

  friend bool operator==(const HistoryPoint&, const HistoryPoint&) = default;
};

/// Per-AS answer: classification plus the evidence behind it.
struct AsnClass {
  bgp::Asn asn = 0;
  core::UsageClass usage;
  core::UsageCounters counters;

  friend bool operator==(const AsnClass&, const AsnClass&) = default;
};

/// Service health counters (QueryKind::kStats).
struct ServiceStats {
  stream::Epoch epoch = 0;
  std::uint64_t live_tuples = 0;
  std::uint64_t evicted_total = 0;
  std::uint64_t shards = 0;
  std::uint64_t window_epochs = 0;
  std::uint64_t subscriptions = 0;
  // Snapshot-path health, read from the process's obs registry (not this
  // service's engine alone): how often snapshots swept vs served the cache,
  // how much incremental-index maintenance the sweeps cost, and the
  // exclusive-lock (locked-phase) time they held.
  std::uint64_t snapshot_sweeps = 0;
  std::uint64_t snapshot_cache_hits = 0;
  std::uint64_t index_deltas_applied = 0;
  std::uint64_t index_compactions = 0;
  std::uint64_t index_rebuilds = 0;
  std::uint64_t locked_ns_last = 0;
  std::uint64_t locked_ns_total = 0;

  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};

/// Union-style response; exactly the member matching `kind` is engaged.
struct QueryResponse {
  QueryKind kind = QueryKind::kStats;
  std::optional<AsnClass> asn_class;  ///< kClassOf, kLiveCounters.
  /// kSnapshot: a shared immutable handle onto the engine's cached result —
  /// bulk queries share one object instead of deep-copying the counter map.
  stream::SnapshotPtr snapshot;
  std::optional<ServiceStats> stats;      ///< kStats.
  std::optional<obs::Snapshot> metrics;   ///< kMetrics.
  std::optional<std::vector<HistoryPoint>> history;  ///< kHistory.
};

/// One published epoch's class transitions, in ascending-ASN order — the
/// unit of the subscription feed, the event log, and the binary delta file.
struct EpochDelta {
  stream::Epoch epoch = 0;
  std::vector<stream::ClassChange> changes;

  friend bool operator==(const EpochDelta&, const EpochDelta&) = default;
};

/// Which transitions a subscriber wants. Default-constructed matches
/// everything. `from`/`to` are two-character class codes ("tf", "nn", ...)
/// or "*" for any; `transition("tf->tc")`-style specs parse both at once.
struct SubscriptionFilter {
  std::vector<bgp::Asn> watch;  ///< Only these ASNs; empty = every AS.
  std::string from = "*";       ///< Class code before the change, or "*".
  std::string to = "*";         ///< Class code after the change, or "*".

  /// Parses "FROM->TO" (each side a class code or "*"), e.g. "*->tc".
  /// Throws std::invalid_argument on anything else.
  [[nodiscard]] static SubscriptionFilter transition(const std::string& spec);

  /// True for a well-formed two-character class code ("tf", "nn", ...).
  /// "*" is NOT a code — spec sides allow it, codes themselves don't.
  [[nodiscard]] static bool valid_code(std::string_view code) noexcept;

  [[nodiscard]] bool matches(const stream::ClassChange& change) const;

  /// The subset of `delta` this filter passes, preserving order.
  [[nodiscard]] std::vector<stream::ClassChange> apply(const EpochDelta& delta) const;

  friend bool operator==(const SubscriptionFilter&, const SubscriptionFilter&) = default;
};

/// Receives one filtered, non-empty EpochDelta per published epoch.
using SubscriptionCallback = std::function<void(const EpochDelta&)>;

/// A shared, immutable, already-encoded event payload (the
/// api::encode_event_payload bytes of a filtered EpochDelta). publish()
/// serializes each distinct filter's result once and hands every matching
/// subscriber the same buffer — the serialize-once broadcast path.
using EncodedEventPtr = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Encoded-subscription receiver: one (epoch, shared payload) per published
/// epoch that passes the filter. The receiver pairs the payload with its own
/// per-subscription frame prefix (api::encode_event_prefix) to form the wire
/// frame; the payload buffer must be treated as immutable.
using EncodedEventSink = std::function<void(stream::Epoch, const EncodedEventPtr&)>;

/// Supplies the retained-history part of a kHistory answer: class points for
/// `asn` at past epochs, strictly ascending, from whatever longitudinal
/// storage backs the service (store::Store in the serving daemon). The
/// service appends the live class itself, so a provider never has to know
/// the current epoch.
using HistoryProvider = std::function<std::vector<HistoryPoint>(bgp::Asn)>;

/// Handle for unsubscribe; never reused within one Service.
using SubscriptionId = std::uint64_t;

/// Fixed-capacity ring of recently published epoch deltas (oldest evicted
/// first). Not thread-safe on its own; the Service serializes access.
class EventLog {
 public:
  explicit EventLog(std::size_t capacity);

  void push(EpochDelta delta);

  /// All retained batches with epoch >= `from`, oldest first.
  [[nodiscard]] std::vector<EpochDelta> since(stream::Epoch from) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Epoch of the oldest retained batch; nullopt when empty. Replay from an
  /// earlier epoch is lossy — callers can detect the gap with this.
  [[nodiscard]] std::optional<stream::Epoch> oldest_epoch() const;

 private:
  std::size_t capacity_;
  std::deque<EpochDelta> entries_;
};

/// The facade. Typical service loop:
///
///   api::Service service({.stream = {...}});
///   auto id = service.subscribe(api::SubscriptionFilter::transition("*->tc"),
///                               [](const api::EpochDelta& d) { ... });
///   for (;;) {
///     service.ingest(next_batch());
///     service.advance_epoch();
///     service.publish();            // diffs, logs, notifies subscribers
///   }
///
/// Thread model: `ingest`/`query(kClassOf is a sweep; kLiveCounters/kStats
/// are lock-light)` follow the engine's concurrency rules; `publish`,
/// `subscribe`, `unsubscribe`, and `replay` serialize on a facade mutex.
/// publish() invokes callbacks *outside* that mutex, so a callback may
/// safely subscribe/unsubscribe re-entrantly; replayed deliveries during
/// subscribe() run under the mutex (see subscribe()).
class Service {
 public:
  explicit Service(ServiceConfig config = {});

  /// Ingests one batch at the current epoch (see StreamEngine::ingest).
  stream::IngestStats ingest(core::Dataset batch);

  /// Advances the engine epoch, aging out-of-window tuples. Returns it.
  stream::Epoch advance_epoch();

  [[nodiscard]] stream::Epoch epoch() const;

  /// Answers one typed request. kSnapshot/kClassOf sweep (cached when the
  /// engine is unchanged); kLiveCounters/kStats never sweep.
  [[nodiscard]] QueryResponse query(const QueryRequest& request) const;

  /// Snapshots, diffs against the previously published snapshot, appends the
  /// batch to the event log, and dispatches it through every subscription
  /// filter. Returns the full (unfiltered) batch. Publishing twice without
  /// an intervening change yields an empty batch and logs nothing.
  EpochDelta publish();

  /// Registers `callback` for future publishes. When `replay_from` is set,
  /// retained batches with epoch >= *replay_from are delivered (filtered)
  /// before this call returns — and before any concurrent publish can
  /// deliver a newer epoch, so the subscriber always observes epochs in
  /// order. Replayed deliveries run under the facade mutex: the callback
  /// must not call back into the Service while handling one (callbacks
  /// invoked from publish() may).
  ///
  /// When `replay_complete` is non-null it is set (atomically with the
  /// replay, under the same mutex — a concurrent publish cannot evict
  /// between the check and the replay) to whether the retained log still
  /// covered `replay_from`: false means the replay horizon has passed it and
  /// the delivered tail is missing older epochs, so a resuming subscriber
  /// must re-sync from a snapshot. Always true without `replay_from`.
  SubscriptionId subscribe(SubscriptionFilter filter, SubscriptionCallback callback,
                           std::optional<stream::Epoch> replay_from = std::nullopt,
                           bool* replay_complete = nullptr);

  /// Like subscribe(), but the receiver gets pre-encoded shared payloads
  /// instead of decoded deltas: publish() serializes each distinct filter's
  /// result once per epoch and every matching encoded subscription receives
  /// the same refcounted buffer (see EncodedEventSink). Replay semantics,
  /// ordering, and the `replay_complete` contract match subscribe();
  /// replayed payloads are encoded per retained batch during this call.
  SubscriptionId subscribe_encoded(SubscriptionFilter filter, EncodedEventSink sink,
                                   std::optional<stream::Epoch> replay_from = std::nullopt,
                                   bool* replay_complete = nullptr);

  /// Returns false when `id` was never issued or already removed.
  bool unsubscribe(SubscriptionId id);

  [[nodiscard]] std::size_t subscription_count() const;

  /// Unfiltered retained history with epoch >= `from` (see EventLog::since).
  [[nodiscard]] std::vector<EpochDelta> replay(stream::Epoch from) const;

  /// Epoch of the oldest batch still replayable; nullopt before any publish.
  [[nodiscard]] std::optional<stream::Epoch> replay_horizon() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

  // --- durable-store integration (store::Store) -------------------------
  // The service stays storage-agnostic: the daemon wires a Store in through
  // these hooks, and recovery drives them in order (restore_engine, then
  // preload_events, then rebaseline) before any traffic is served.

  /// Installs (or clears, with an empty function) the retained-history
  /// source consulted by kHistory queries.
  void set_history_provider(HistoryProvider provider);

  /// Swaps in a recovered engine state (see stream::StreamEngine::restore_state).
  void restore_engine(stream::EngineState state);

  /// Seeds the event-log ring with recovered epoch deltas (ascending), so
  /// subscribers can replay across the restart. No callbacks fire.
  void preload_events(std::vector<EpochDelta> deltas);

  /// Re-anchors the publish baseline at the engine's current snapshot
  /// without diffing or notifying: recovery replays already-published
  /// history, which must not be re-announced as fresh transitions.
  void rebaseline();

  /// Exports the engine's durable state (see StreamEngine::checkpoint_state).
  [[nodiscard]] stream::EngineState checkpoint_state() const {
    return engine_.checkpoint_state();
  }

  /// Test instrumentation, forwarded to the wrapped engine (see
  /// StreamEngine::set_after_collect_hook): runs after a snapshot's
  /// collection lock is released, before its sweep. Lets concurrency tests
  /// hold sweeps open deterministically. Set before going concurrent.
  void set_after_collect_hook(std::function<void()> hook) {
    engine_.set_after_collect_hook(std::move(hook));
  }

 private:
  struct Subscription {
    SubscriptionId id = 0;
    SubscriptionFilter filter;
    /// filter.watch sorted + deduped once at subscribe: publish() evaluates
    /// every subscriber's filter under the facade mutex, so membership must
    /// be a binary search, not a linear scan of a (possibly remote-supplied)
    /// watchlist.
    std::vector<bgp::Asn> sorted_watch;
    /// Exactly one of `callback` / `encoded_sink` is engaged, depending on
    /// which subscribe flavor created the subscription.
    SubscriptionCallback callback;
    EncodedEventSink encoded_sink;
  };

  /// Shared subscribe/subscribe_encoded implementation (one of
  /// callback/sink engaged). Replays under the facade mutex, then registers.
  SubscriptionId subscribe_impl(SubscriptionFilter filter, SubscriptionCallback callback,
                                EncodedEventSink sink,
                                std::optional<stream::Epoch> replay_from,
                                bool* replay_complete);

  /// filter.apply with the precomputed watch index.
  [[nodiscard]] static std::vector<stream::ClassChange> apply_subscription(
      const Subscription& subscription, const EpochDelta& delta);

  ServiceConfig config_;
  stream::StreamEngine engine_;
  mutable std::mutex facade_mutex_;  ///< Guards everything below.
  stream::SnapshotPtr published_;    ///< Baseline for the next publish's diff.
  EventLog log_;
  std::vector<Subscription> subscriptions_;
  SubscriptionId next_id_ = 1;
  HistoryProvider history_provider_;  ///< Guarded by facade_mutex_.
  /// Scrape-time gauges (subscriptions, event-log occupancy); registered in
  /// the constructor, declared last so they unregister first.
  obs::ScopedCollector subs_collector_;
  obs::ScopedCollector log_collector_;
};

}  // namespace bgpcu::api

#endif  // BGPCU_API_SERVICE_H
