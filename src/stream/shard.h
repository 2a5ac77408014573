// One ASN-hash shard of the stream engine's live tuple store. A shard owns
// every tuple whose collector peer hashes to it, keeps each tuple's
// precomputed TupleView mask and last-seen epoch, and maintains the
// *live* per-AS peer-column counters (t/s evidence at path index 1, where
// Cond1 is vacuous) incrementally on ingest/evict — so real-time queries
// never need a sweep. A shard also journals every accept/evict as a
// core::IndexDelta, which is what lets the engine patch its persistent
// IncrementalIndex under the snapshot lock instead of rebuilding it. Each
// shard carries its own mutex; cross-shard synchronization is the engine's
// job.
//
// Window eviction costs O(tuples expiring), not O(tuples live): every live
// tuple sits on an intrusive recency list ordered by last-seen epoch (the
// map's own nodes are linked; std::unordered_map never moves an element), so
// evict_older_than pops from the oldest end and never visits a survivor.
#ifndef BGPCU_STREAM_SHARD_H
#define BGPCU_STREAM_SHARD_H

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/classifier.h"
#include "core/engine.h"
#include "core/incremental.h"
#include "core/types.h"

namespace bgpcu::stream {

/// Monotone ingestion epoch; advanced by the engine, never by shards.
using Epoch = std::uint64_t;

/// What happened to one tuple offered to a shard.
enum class IngestOutcome : std::uint8_t {
  kAccepted,   ///< New unique tuple, now live.
  kRefreshed,  ///< Already live; last-seen epoch bumped.
  kDuplicate,  ///< Already live at this epoch; no state change.
  kRejected,   ///< Empty or overlong path; never stored.
};

/// Per-batch ingestion accounting.
struct IngestStats {
  std::uint64_t accepted = 0;    ///< New unique live tuples.
  std::uint64_t refreshed = 0;   ///< Live tuples re-observed (epoch bumped).
  std::uint64_t duplicates = 0;  ///< Already live at the current epoch.
  std::uint64_t rejected = 0;    ///< Empty/overlong paths, dropped.

  IngestStats& operator+=(const IngestStats& other) noexcept;
  friend bool operator==(const IngestStats&, const IngestStats&) = default;
};

/// A tuple with its ingest-time precomputation done: communities normalized,
/// upper mask derived. Built outside any lock so the critical section is
/// pure hash-table work.
struct PreparedTuple {
  core::PathCommTuple tuple;
  std::uint32_t upper_mask = 0;
};

/// One live tuple as exported for durable checkpoints: the raw tuple plus
/// the shard bookkeeping that must survive a restart (last-seen epoch for
/// window aging, the journal key so index row identities stay stable). The
/// upper mask is derived state and is recomputed on restore.
struct StoredTuple {
  core::PathCommTuple tuple;
  Epoch last_seen = 0;
  std::uint64_t key = 0;
};

/// A mutex-protected slice of the live tuple universe.
class TupleShard {
 public:
  /// Default journal-entry cap: more buffered deltas than this trigger
  /// overflow — journaling stops, the buffered deltas are dropped, and the
  /// next drain_deltas() reports the loss so the engine can rebuild from the
  /// live set instead. Bounds the memory a snapshot-starved engine can sink
  /// into delta buffers.
  static constexpr std::size_t kJournalCap = 1u << 20;

  /// Keys assigned to accepted tuples are `first_key + n * key_stride`: the
  /// engine gives shard i (i, shard_count) so keys are unique engine-wide.
  /// `journal_cap` overrides the overflow threshold (tests shrink it).
  explicit TupleShard(std::uint64_t first_key = 0, std::uint64_t key_stride = 1,
                      std::size_t journal_cap = kJournalCap);

  /// Offers one tuple (communities must already be normalized). Thread-safe.
  /// Precondition: `epoch` is no older than any epoch passed to an earlier
  /// ingest or restore, which is what keeps the recency list sorted. The
  /// engine guarantees it: it ingests only at its current epoch, read under
  /// the shared lock, and advances that epoch under the exclusive lock.
  IngestOutcome ingest(core::PathCommTuple&& tuple, Epoch epoch);

  /// Offers a pre-partitioned batch under one lock acquisition; outcome
  /// counts accumulate into `stats`. Thread-safe. Same epoch precondition
  /// as ingest().
  void ingest_batch(std::vector<PreparedTuple>&& batch, Epoch epoch, IngestStats& stats);

  /// Removes tuples last seen before `min_epoch`, oldest first, stopping at
  /// the first survivor; returns how many died.
  std::size_t evict_older_than(Epoch min_epoch);

  /// Moves the journaled add/remove deltas since the last drain into `out`
  /// (in mutation order) and clears the journal. Add+remove pairs for the
  /// same key that both happened since the last drain cancel each other and
  /// are never emitted — the index would only have inserted and immediately
  /// tombstoned the row (keys are never reused, so the cancellation is
  /// exact). Returns false when the journal overflowed since the last drain:
  /// nothing is appended, the overflow state is cleared, and the caller must
  /// rebuild its index from collect_rows() of every shard. Thread-safe.
  [[nodiscard]] bool drain_deltas(std::vector<core::IndexDelta>& out);

  /// Appends one index row per live tuple (the shard's authoritative state),
  /// keyed identically to the journal's entries, oldest first. The rows
  /// borrow the shard's stored paths: the caller must hold off mutations
  /// (via the engine's exclusive lock) while using them. Feeds
  /// IncrementalIndex::build after an overflow, an apply failure or a
  /// restore. Thread-safe.
  void collect_rows(std::vector<core::IndexRow>& out) const;

  /// Appends one StoredTuple per live tuple (checkpoint export), oldest
  /// first: the output is in non-decreasing last_seen order. Thread-safe.
  void export_tuples(std::vector<StoredTuple>& out) const;

  /// Next key this shard would assign (checkpoint export). Thread-safe.
  [[nodiscard]] std::uint64_t next_key() const;

  /// Replaces the shard's contents with a checkpointed tuple set: masks are
  /// recomputed, live peer-column counters rebuilt, the recency list relinked,
  /// journal state cleared (recovery rebuilds the index separately). Input
  /// not in last_seen order (a checkpoint written in hash order, or the
  /// engine's re-shard path) is stable-sorted first. Tuples whose paths no
  /// longer pass preparation (corrupt state) are dropped. Thread-safe.
  void restore_tuples(std::vector<StoredTuple> tuples, std::uint64_t next_key);

  /// Live peer-column evidence for `asn` (t/s at path index 1); zero-valued
  /// when no live tuple has `asn` as its collector peer. Thread-safe.
  [[nodiscard]] core::UsageCounters live_counters(bgp::Asn asn) const;

  /// Number of live tuples. Thread-safe.
  [[nodiscard]] std::size_t size() const;

  /// Bumped on every accepting/evicting mutation; lets the engine detect
  /// "nothing changed since the last snapshot" without comparing stores.
  [[nodiscard]] std::uint64_t version() const;

 private:
  struct TupleMeta;
  /// One element of tuples_; the recency list links these in place.
  using Node = std::pair<const core::PathCommTuple, TupleMeta>;

  struct TupleMeta {
    std::uint32_t upper_mask = 0;
    Epoch last_seen = 0;
    std::uint64_t key = 0;  ///< Stable identity linking journal add/remove.
    Node* older = nullptr;  ///< Recency-list neighbours; null at the ends.
    Node* newer = nullptr;
  };

  /// Appends to the journal unless it overflowed; flips into the
  /// overflowed state at the cap. Caller holds mutex_.
  void journal_push(core::IndexDelta&& delta);

  /// Recency-list surgery. Caller holds mutex_.
  void link_newest(Node* node) noexcept;
  void unlink(Node* node) noexcept;

  mutable std::mutex mutex_;
  std::unordered_map<core::PathCommTuple, TupleMeta> tuples_;
  /// Ends of the recency list over every node of tuples_, sorted by
  /// last_seen (ties in accept/refresh order).
  Node* oldest_ = nullptr;
  Node* newest_ = nullptr;
  core::CounterMap live_;  ///< Peer-column t/s, one count per live tuple.
  std::uint64_t version_ = 0;
  std::uint64_t next_key_ = 0;
  std::uint64_t key_stride_ = 1;
  std::size_t lane_ = 0;  ///< Counter stripe; derived from first_key.
  std::size_t journal_cap_ = kJournalCap;
  bool journal_overflowed_ = false;
  std::vector<core::IndexDelta> journal_;
  std::vector<bool> cancelled_;  ///< Parallel to journal_; true = skip on drain.
  /// Undrained add entries by key, so a remove can cancel its add in place.
  std::unordered_map<std::uint64_t, std::size_t> pending_adds_;
  std::size_t cancelled_in_journal_ = 0;
};

}  // namespace bgpcu::stream

#endif  // BGPCU_STREAM_SHARD_H
