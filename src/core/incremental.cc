#include "core/incremental.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <utility>

namespace bgpcu::core {

namespace {

constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

}  // namespace

IncrementalIndex::IncrementalIndex(IncrementalIndexConfig config) : config_(config) {
  reset();
}

void IncrementalIndex::reset() {
  data_ = IndexedDataset{};
  // One fixed slot per possible path length: group index never moves, so a
  // RowRef stays valid for the life of its row (until compaction remaps it).
  data_.groups_.resize(kMaxPathLength);
  for (std::size_t len = 1; len <= kMaxPathLength; ++len) {
    data_.groups_[len - 1].len = static_cast<std::uint32_t>(len);
  }
  id_of_.clear();
  id_refs_.clear();
  dead_ids_ = 0;
  row_of_.clear();
  row_keys_.assign(kMaxPathLength, {});
  dead_rows_.assign(kMaxPathLength, 0);
}

std::size_t IncrementalIndex::live_rows(std::size_t g) const noexcept {
  return data_.groups_[g].count() - dead_rows_[g];
}

void IncrementalIndex::refresh_max_len() noexcept {
  std::size_t max_len = 0;
  for (std::size_t g = kMaxPathLength; g-- > 0;) {
    if (live_rows(g) != 0) {
      max_len = g + 1;
      break;
    }
  }
  data_.max_len_ = max_len;
}

bool IncrementalIndex::add(std::uint64_t key, std::span<const bgp::Asn> path,
                           std::uint32_t upper_mask) {
  if (path.empty() || path.size() > kMaxPathLength) return false;
  const std::size_t g = path.size() - 1;
  auto& group = data_.groups_[g];
  const auto row = static_cast<std::uint32_t>(group.count());
  if (!row_of_.try_emplace(key, RowRef{group.len, row}).second) {
    throw std::invalid_argument("IncrementalIndex: add reuses a live key");
  }
  for (const auto asn : path) {
    const auto [it, inserted] =
        id_of_.try_emplace(asn, static_cast<std::uint32_t>(data_.asns_.size()));
    if (inserted) {
      data_.asns_.push_back(asn);
      id_refs_.push_back(0);
    }
    const std::uint32_t id = it->second;
    if (!inserted && id_refs_[id] == 0) --dead_ids_;  // vanished AS reappears
    ++id_refs_[id];
    group.ids.push_back(id);
  }
  group.masks.push_back(upper_mask);
  row_keys_[g].push_back(key);
  if (!group.alive.empty()) group.alive.push_back(1);
  data_.max_len_ = std::max(data_.max_len_, path.size());
  ++data_.tuple_count_;
  return true;
}

void IncrementalIndex::remove(std::uint64_t key) {
  const auto it = row_of_.find(key);
  if (it == row_of_.end()) {
    throw std::invalid_argument("IncrementalIndex: remove of unknown key");
  }
  const auto [len, row] = it->second;
  row_of_.erase(it);
  const std::size_t g = len - 1;
  auto& group = data_.groups_[g];
  if (group.alive.empty()) group.alive.assign(group.count(), 1);
  group.alive[row] = 0;
  ++dead_rows_[g];
  const std::uint32_t* ids = group.ids.data() + static_cast<std::size_t>(row) * len;
  for (std::size_t i = 0; i < len; ++i) {
    if (--id_refs_[ids[i]] == 0) ++dead_ids_;
  }
  --data_.tuple_count_;
  if (len == data_.max_len_ && live_rows(g) == 0) refresh_max_len();
  if (dead_rows_[g] >= config_.compact_min_dead_rows &&
      dead_rows_[g] * 2 >= group.count()) {
    compact_group(g);
  }
}

void IncrementalIndex::compact_group(std::size_t g) {
  auto& group = data_.groups_[g];
  auto& keys = row_keys_[g];
  const std::size_t len = group.len;
  std::size_t write = 0;
  for (std::size_t row = 0; row < group.count(); ++row) {
    if (!group.alive[row]) continue;
    if (write != row) {
      std::copy_n(group.ids.begin() + static_cast<std::ptrdiff_t>(row * len), len,
                  group.ids.begin() + static_cast<std::ptrdiff_t>(write * len));
      group.masks[write] = group.masks[row];
      keys[write] = keys[row];
      row_of_[keys[write]].row = static_cast<std::uint32_t>(write);
    }
    ++write;
  }
  group.ids.resize(write * len);
  group.masks.resize(write);
  keys.resize(write);
  group.alive.clear();
  dead_rows_[g] = 0;
  ++stats_.group_compactions;
}

void IncrementalIndex::rebuild() {
  // Reassign dense ids over the live rows only (first-appearance order, as a
  // from-scratch build would), compacting every group in the same pass.
  std::vector<std::uint32_t> remap(data_.asns_.size(), kUnmapped);
  std::vector<bgp::Asn> new_asns;
  std::vector<std::uint32_t> new_refs;
  new_asns.reserve(data_.asns_.size() - dead_ids_);
  new_refs.reserve(data_.asns_.size() - dead_ids_);
  for (std::size_t g = 0; g < kMaxPathLength; ++g) {
    auto& group = data_.groups_[g];
    auto& keys = row_keys_[g];
    const std::size_t len = group.len;
    std::size_t write = 0;
    for (std::size_t row = 0; row < group.count(); ++row) {
      if (!group.alive.empty() && !group.alive[row]) continue;
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint32_t old_id = group.ids[row * len + i];
        std::uint32_t& mapped = remap[old_id];
        if (mapped == kUnmapped) {
          mapped = static_cast<std::uint32_t>(new_asns.size());
          new_asns.push_back(data_.asns_[old_id]);
          new_refs.push_back(0);
        }
        ++new_refs[mapped];
        group.ids[write * len + i] = mapped;
      }
      group.masks[write] = group.masks[row];
      keys[write] = keys[row];
      row_of_[keys[write]].row = static_cast<std::uint32_t>(write);
      ++write;
    }
    group.ids.resize(write * len);
    group.masks.resize(write);
    keys.resize(write);
    group.alive.clear();
    dead_rows_[g] = 0;
  }
  data_.asns_ = std::move(new_asns);
  id_refs_ = std::move(new_refs);
  id_of_.clear();
  id_of_.reserve(data_.asns_.size());
  for (std::size_t id = 0; id < data_.asns_.size(); ++id) {
    id_of_.try_emplace(data_.asns_[id], static_cast<std::uint32_t>(id));
  }
  dead_ids_ = 0;
  ++stats_.full_rebuilds;
}

void IncrementalIndex::apply(std::vector<IndexDelta> deltas) {
  for (const auto& delta : deltas) {
    if (delta.kind == IndexDelta::Kind::kAdd) {
      if (add(delta.key, delta.path, delta.upper_mask)) ++stats_.adds_applied;
    } else {
      remove(delta.key);
      ++stats_.removes_applied;
    }
  }
  if (dead_ids_ >= config_.rebuild_min_dead_ids && dead_ids_ * 2 >= id_refs_.size()) {
    rebuild();
  }
}

void IncrementalIndex::build(std::span<const IndexRow> rows) {
  reset();
  std::array<std::size_t, kMaxPathLength> per_group{};
  for (const auto& row : rows) {
    if (!row.path.empty() && row.path.size() <= kMaxPathLength) ++per_group[row.path.size() - 1];
  }
  std::size_t total = 0;
  for (std::size_t g = 0; g < kMaxPathLength; ++g) {
    auto& group = data_.groups_[g];
    group.ids.reserve(per_group[g] * group.len);
    group.masks.reserve(per_group[g]);
    row_keys_[g].reserve(per_group[g]);
    total += per_group[g];
  }
  row_of_.reserve(total);
  for (const auto& row : rows) (void)add(row.key, row.path, row.upper_mask);
}

}  // namespace bgpcu::core
