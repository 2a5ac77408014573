#include "core/incremental.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace bgpcu::core {

namespace {

constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

// Image framing. Fixed-width little-endian fields: the image is bulk array
// data, not a wire frame, so varints would only slow the mmap'd load down.
constexpr std::uint8_t kImageMagic[4] = {0x89, 'B', 'C', 'I'};
constexpr std::uint8_t kImageVersion = 1;

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

void put_u64le(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

/// Bounds-checked little-endian reader over an image span. `ok` latches
/// false on the first out-of-bounds read; all reads after that return 0.
struct ImageCursor {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  [[nodiscard]] bool has(std::size_t n) {
    if (!ok || data.size() - pos < n) ok = false;
    return ok;
  }
  std::uint32_t u32() {
    if (!has(4)) return 0;
    const std::uint8_t* b = data.data() + pos;
    const std::uint32_t value = static_cast<std::uint32_t>(b[0]) |
                                (static_cast<std::uint32_t>(b[1]) << 8) |
                                (static_cast<std::uint32_t>(b[2]) << 16) |
                                (static_cast<std::uint32_t>(b[3]) << 24);
    pos += 4;
    return value;
  }
  std::uint64_t u64() {
    if (!has(8)) return 0;
    const std::uint8_t* b = data.data() + pos;
    std::uint64_t value = 0;
    for (int i = 7; i >= 0; --i) value = (value << 8) | b[i];
    pos += 8;
    return value;
  }
};

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

void IncrementalIndex::add(std::uint64_t key, const std::vector<bgp::Asn>& path,
                           std::uint32_t upper_mask) {
  if (path.empty() || path.size() > kMaxPathLength) return;
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
  ++stats_.adds_applied;
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
  ++stats_.removes_applied;
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
  for (auto& delta : deltas) {
    if (delta.kind == IndexDelta::Kind::kAdd) {
      add(delta.key, delta.path, delta.upper_mask);
    } else {
      remove(delta.key);
    }
  }
  if (dead_ids_ >= config_.rebuild_min_dead_ids && dead_ids_ * 2 >= id_refs_.size()) {
    rebuild();
  }
}

void IncrementalIndex::serialize_image(std::vector<std::uint8_t>& out) const {
  out.insert(out.end(), std::begin(kImageMagic), std::end(kImageMagic));
  out.push_back(kImageVersion);
  put_u32le(out, static_cast<std::uint32_t>(data_.asns_.size()));
  for (const auto asn : data_.asns_) put_u32le(out, asn);
  for (std::size_t g = 0; g < kMaxPathLength; ++g) {
    const auto& group = data_.groups_[g];
    const auto& keys = row_keys_[g];
    const std::size_t len = group.len;
    put_u32le(out, static_cast<std::uint32_t>(live_rows(g)));
    for (std::size_t row = 0; row < group.count(); ++row) {
      if (!group.alive.empty() && !group.alive[row]) continue;
      for (std::size_t i = 0; i < len; ++i) put_u32le(out, group.ids[row * len + i]);
      put_u32le(out, group.masks[row]);
      put_u64le(out, keys[row]);
    }
  }
}

bool IncrementalIndex::load_image(std::span<const std::uint8_t> image) {
  reset();
  ImageCursor cursor{image};
  if (!cursor.has(5)) return false;
  if (!std::equal(std::begin(kImageMagic), std::end(kImageMagic), image.begin())) {
    return false;
  }
  cursor.pos = 4;
  if (image[cursor.pos++] != kImageVersion) return false;

  const std::uint32_t asn_count = cursor.u32();
  // Every ASN costs 4 image bytes; reject counts the remaining bytes cannot
  // hold before reserving anything.
  if (!cursor.ok || image.size() - cursor.pos < static_cast<std::size_t>(asn_count) * 4) {
    return false;
  }
  data_.asns_.reserve(asn_count);
  id_of_.reserve(asn_count);
  for (std::uint32_t id = 0; id < asn_count; ++id) {
    const auto asn = cursor.u32();
    if (!id_of_.try_emplace(asn, id).second) {
      reset();
      return false;  // duplicate ASN: the dense map would be ambiguous
    }
    data_.asns_.push_back(asn);
  }
  id_refs_.assign(asn_count, 0);

  for (std::size_t g = 0; g < kMaxPathLength; ++g) {
    auto& group = data_.groups_[g];
    auto& keys = row_keys_[g];
    const std::size_t len = group.len;
    const std::uint32_t rows = cursor.u32();
    const std::size_t row_bytes = len * 4 + 4 + 8;
    if (!cursor.ok || (image.size() - cursor.pos) / row_bytes < rows) {
      reset();
      return false;
    }
    group.ids.reserve(static_cast<std::size_t>(rows) * len);
    group.masks.reserve(rows);
    keys.reserve(rows);
    for (std::uint32_t row = 0; row < rows; ++row) {
      for (std::size_t i = 0; i < len; ++i) {
        const auto id = cursor.u32();
        if (id >= asn_count) {
          reset();
          return false;
        }
        ++id_refs_[id];
        group.ids.push_back(id);
      }
      group.masks.push_back(cursor.u32());
      const auto key = cursor.u64();
      if (!row_of_.try_emplace(key, RowRef{group.len, row}).second) {
        reset();
        return false;  // duplicate tuple key
      }
      keys.push_back(key);
    }
    data_.tuple_count_ += rows;
    if (rows != 0) data_.max_len_ = len;
  }
  if (!cursor.ok || cursor.pos != image.size()) {
    reset();
    return false;
  }
  for (const auto refs : id_refs_) {
    if (refs == 0) ++dead_ids_;
  }
  return true;
}

}  // namespace bgpcu::core
