// The shard's window aging as it was before the recency list: one map from
// tuple to last-seen epoch, and an eviction that walks every live tuple. The
// differential property test holds stream::TupleShard to it step for step:
// ingest outcomes, evicted counts, survivors, live peer-column counters and
// journal deltas.
#ifndef BGPCU_TESTS_STREAM_REFERENCE_SHARD_H
#define BGPCU_TESTS_STREAM_REFERENCE_SHARD_H

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "stream/shard.h"

namespace bgpcu::stream::reference {

/// One drain's journal output in comparable form: adds in mutation order,
/// removes as a set of keys.
struct Drained {
  std::vector<core::IndexDelta> adds;
  std::set<std::uint64_t> removes;
};

/// Splits a TupleShard's drained deltas into the comparable form.
inline Drained split(std::vector<core::IndexDelta> deltas) {
  Drained out;
  for (auto& delta : deltas) {
    if (delta.kind == core::IndexDelta::Kind::kAdd) {
      out.adds.push_back(std::move(delta));
    } else {
      out.removes.insert(delta.key);
    }
  }
  return out;
}

class ReferenceShard {
 public:
  /// Keys follow TupleShard's scheme: first_key + n * key_stride.
  ReferenceShard(std::uint64_t first_key, std::uint64_t key_stride)
      : next_key_(first_key), key_stride_(key_stride) {}

  /// `tuple` must be normalized and pass core::TupleView::prepare.
  IngestOutcome ingest(const core::PathCommTuple& tuple, Epoch epoch) {
    const auto it = tuples_.find(tuple);
    if (it != tuples_.end()) {
      if (it->second.last_seen == epoch) return IngestOutcome::kDuplicate;
      it->second.last_seen = epoch;
      return IngestOutcome::kRefreshed;
    }
    const auto view = core::TupleView::prepare(tuple);
    if (!view) return IngestOutcome::kRejected;
    const Entry entry{view->upper_mask, epoch, next_key_};
    next_key_ += key_stride_;
    undrained_adds_.insert(entry.key);
    adds_.push_back({core::IndexDelta::Kind::kAdd, entry.key, entry.upper_mask, tuple.path});
    tuples_.emplace(tuple, entry);
    return IngestOutcome::kAccepted;
  }

  /// The full-map walk: every live tuple is visited on every call.
  std::size_t evict_older_than(Epoch min_epoch) {
    std::size_t evicted = 0;
    for (auto it = tuples_.begin(); it != tuples_.end();) {
      if (it->second.last_seen >= min_epoch) {
        ++it;
        continue;
      }
      journal_remove(it->second.key);
      it = tuples_.erase(it);
      ++evicted;
    }
    return evicted;
  }

  /// Peer-column t/s evidence, counted afresh over every live tuple.
  [[nodiscard]] core::UsageCounters live_counters(bgp::Asn asn) const {
    core::UsageCounters k;
    for (const auto& [tuple, entry] : tuples_) {
      if (tuple.peer() != asn) continue;
      if ((entry.upper_mask & 1u) != 0) {
        ++k.t;
      } else {
        ++k.s;
      }
    }
    return k;
  }

  /// Every live tuple with its bookkeeping, in no particular order.
  [[nodiscard]] std::vector<StoredTuple> live() const {
    std::vector<StoredTuple> out;
    out.reserve(tuples_.size());
    for (const auto& [tuple, entry] : tuples_) out.push_back({tuple, entry.last_seen, entry.key});
    return out;
  }

  [[nodiscard]] std::uint64_t next_key() const { return next_key_; }

  /// The deltas since the last drain; an add whose tuple was evicted before
  /// the drain cancels against its remove, as the shard's journal does.
  Drained drain() {
    Drained out;
    for (auto& add : adds_) {
      if (undrained_adds_.contains(add.key)) out.adds.push_back(std::move(add));
    }
    out.removes = std::move(removes_);
    drop_journal();
    return out;
  }

  /// A restore leaves the live state as it was but clears the journal:
  /// recovery rebuilds the index separately.
  void drop_journal() {
    adds_.clear();
    undrained_adds_.clear();
    removes_.clear();
  }

 private:
  struct Entry {
    std::uint32_t upper_mask = 0;
    Epoch last_seen = 0;
    std::uint64_t key = 0;
  };

  void journal_remove(std::uint64_t key) {
    // An add still undrained cancels instead (it drops out of the drain).
    if (undrained_adds_.erase(key) == 0) removes_.insert(key);
  }

  std::unordered_map<core::PathCommTuple, Entry> tuples_;
  std::uint64_t next_key_;
  std::uint64_t key_stride_;
  std::vector<core::IndexDelta> adds_;
  std::set<std::uint64_t> undrained_adds_;
  std::set<std::uint64_t> removes_;
};

}  // namespace bgpcu::stream::reference

#endif  // BGPCU_TESTS_STREAM_REFERENCE_SHARD_H
