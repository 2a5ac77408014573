// Incremental maintenance of the sweep kernel's IndexedDataset across
// snapshots. A from-scratch IndexedDataset build is a full pass over the
// live tuple set — cheap next to a sweep, but it is the only work the stream
// engine still does under its exclusive lock, and at the reference size
// (~173k tuples) that ~27 ms critical section caps ingest throughput for
// high-snapshot-rate monitoring workloads. An IncrementalIndex keeps the
// dataset alive between snapshots and is patched in place by add/remove
// deltas instead of rebuilt:
//
//  - The ASN -> dense-id map persists; new ASes extend it, vanished ASes
//    keep their id (their counters come out zero and are filtered from the
//    result exactly as a from-scratch build would omit them).
//  - Adds append a row to the fixed per-path-length group; removes tombstone
//    the row in place (O(path) reference-count bookkeeping, no data motion).
//  - Tombstones are compacted lazily: a group whose dead fraction crosses
//    the configured threshold is rewritten densely, so the flat arrays stay
//    sweep-friendly without paying a compaction per eviction.
//  - When enough dense ids have no live reference left, the whole index is
//    rebuilt from its own live rows (ids reassigned, groups compacted) — the
//    backstop that keeps per-sweep counter arrays proportional to the live
//    AS universe under adversarial churn.
//
// A producer that has lost track of the index (journal overflow, a failed
// apply, a restart) hands build() every live row instead: one counting pass
// sizes the arrays, then the rows go in through the same add() path that
// deltas use, borrowed rather than copied into owned deltas first. The row
// order becomes the group arrays' order, so a producer should pass rows in
// a stable, locality-friendly order (the stream shards use recency order).
//
// The maintained dataset yields bit-identical sweep_columns output to a
// from-scratch build over the same live tuple set: counting is
// order-independent, tombstoned rows are skipped, max_len tracks live rows
// only, and zero-counter ids never reach the result map. That equivalence is
// the correctness contract (tests/core/test_incremental.cc plus the stream
// equivalence scenarios).
//
// Not thread-safe; the stream engine serializes apply() and build() against
// sweeps via its single-flight snapshot protocol.
#ifndef BGPCU_CORE_INCREMENTAL_H
#define BGPCU_CORE_INCREMENTAL_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/types.h"

namespace bgpcu::core {

/// One index mutation. Producers (the stream engine's shards) journal these
/// on ingest/evict; IncrementalIndex::apply consumes them in order. `key` is
/// the producer-assigned stable identity of the tuple: an add and its later
/// remove must carry the same key, and keys are never reused.
struct IndexDelta {
  enum class Kind : std::uint8_t { kAdd, kRemove };

  Kind kind = Kind::kAdd;
  std::uint64_t key = 0;
  std::uint32_t upper_mask = 0;    ///< Adds only.
  std::vector<bgp::Asn> path;      ///< Adds only; owned (the producer's
                                   ///< stored tuple may die before apply).
};

/// One live tuple handed to IncrementalIndex::build: the same key and mask
/// an add delta would carry, with the path borrowed from the producer's
/// store (it must outlive the build() call).
struct IndexRow {
  std::span<const bgp::Asn> path;
  std::uint64_t key = 0;
  std::uint32_t upper_mask = 0;
};

/// Compaction/rebuild thresholds. The defaults keep maintenance amortized at
/// production scale; tests shrink them to exercise the triggers.
struct IncrementalIndexConfig {
  /// A group is compacted when it has at least this many dead rows AND the
  /// dead rows are at least half of the group's rows.
  std::size_t compact_min_dead_rows = 64;
  /// The whole index is rebuilt (ids reassigned, every group compacted) when
  /// at least this many dense ids have no live reference AND dead ids are at
  /// least half of all ids.
  std::size_t rebuild_min_dead_ids = 4096;
};

class IncrementalIndex {
 public:
  /// Lifetime maintenance counters (monotone). adds/removes count applied
  /// deltas only; rows loaded by build() are not deltas.
  struct Stats {
    std::uint64_t adds_applied = 0;
    std::uint64_t removes_applied = 0;
    std::uint64_t group_compactions = 0;
    std::uint64_t full_rebuilds = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };

  explicit IncrementalIndex(IncrementalIndexConfig config = {});

  /// Applies `deltas` in order. Empty/overlong add paths are ignored (the
  /// engines' contract); a remove whose key is unknown, or an add reusing a
  /// live key, throws std::invalid_argument — the producer's journal is
  /// corrupt and the caller must rebuild from authoritative state.
  void apply(std::vector<IndexDelta> deltas);

  /// Replaces the index's contents with `rows`, the producer's
  /// authoritative live set: reset(), size every group from one counting
  /// pass, then add each row in order. Rows with empty/overlong paths are
  /// ignored, as in apply(); a duplicate key throws std::invalid_argument
  /// (the index is then partial and must be rebuilt again).
  void build(std::span<const IndexRow> rows);

  /// The maintained dataset, valid until the next apply()/build()/reset().
  [[nodiscard]] const IndexedDataset& dataset() const noexcept { return data_; }

  /// Drops everything (tuples, ASN map, stats keep accumulating).
  void reset();

  /// Live tuples currently indexed.
  [[nodiscard]] std::size_t live_tuples() const noexcept { return data_.tuple_count(); }

  /// Tombstoned rows awaiting lazy compaction, summed across groups. With
  /// live_tuples() this gives the index's tombstone ratio — the gauge the
  /// observability layer exports to watch compaction pressure.
  [[nodiscard]] std::size_t dead_rows() const noexcept {
    std::size_t total = 0;
    for (const auto n : dead_rows_) total += n;
    return total;
  }

  /// Dense ids with no live reference left (full-rebuild pressure).
  [[nodiscard]] std::size_t dead_ids() const noexcept { return dead_ids_; }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const IncrementalIndexConfig& config() const noexcept { return config_; }

 private:
  /// Where one live tuple's row sits: groups_[len - 1], row index `row`.
  struct RowRef {
    std::uint32_t len = 0;
    std::uint32_t row = 0;
  };

  /// Returns false (and changes nothing) for an empty or overlong path.
  bool add(std::uint64_t key, std::span<const bgp::Asn> path, std::uint32_t upper_mask);
  void remove(std::uint64_t key);
  void compact_group(std::size_t g);
  void rebuild();
  [[nodiscard]] std::size_t live_rows(std::size_t g) const noexcept;
  void refresh_max_len() noexcept;

  IncrementalIndexConfig config_;
  IndexedDataset data_;  ///< groups_ holds one slot per length 1..kMaxPathLength.
  std::unordered_map<bgp::Asn, std::uint32_t> id_of_;
  std::vector<std::uint32_t> id_refs_;  ///< Live path-element references per id.
  std::size_t dead_ids_ = 0;            ///< Ids whose refcount dropped to zero.
  std::unordered_map<std::uint64_t, RowRef> row_of_;
  std::vector<std::vector<std::uint64_t>> row_keys_;  ///< Per group, parallel to masks.
  std::vector<std::size_t> dead_rows_;                ///< Per group tombstone count.
  Stats stats_;
};

}  // namespace bgpcu::core

#endif  // BGPCU_CORE_INCREMENTAL_H
