#include "core/engine.h"

#include <algorithm>
#include <unordered_map>

#include "util/task_pool.h"

namespace bgpcu::core {

namespace {

/// One phase's counting output for one lane: two evidence counters per dense
/// id (t/s in phase 1, f/c in phase 2) plus the lane's increment count for
/// the early-stop rule. Lanes merge by addition after the phase barrier, so
/// totals are independent of lane count and scheduling.
struct PhaseCounters {
  std::vector<std::uint64_t> hit;
  std::vector<std::uint64_t> miss;
  std::uint64_t increments = 0;

  void reset(std::size_t n) {
    hit.assign(n, 0);
    miss.assign(n, 0);
    increments = 0;
  }
};

/// Cond1 for target position x (1-based): all ids strictly before x classify
/// forward. `ids` points at one tuple's path row.
bool cond1(const std::uint32_t* ids, std::size_t x, const std::uint8_t* forward_flag) {
  for (std::size_t i = 0; i + 1 < x; ++i) {
    if (!forward_flag[ids[i]]) return false;
  }
  return true;
}

/// PHASE 1 over tuples [begin, end) of one length group at column x.
void count_tagging(const IndexedDataset::Group& group, std::size_t begin, std::size_t end,
                   std::size_t x, const std::uint8_t* forward_flag, PhaseCounters& out) {
  const std::size_t len = group.len;
  const std::uint8_t* alive = group.alive.empty() ? nullptr : group.alive.data();
  const std::uint32_t* ids = group.ids.data() + begin * len;
  for (std::size_t t = begin; t < end; ++t, ids += len) {
    if (alive != nullptr && !alive[t]) continue;  // tombstoned row
    if (!cond1(ids, x, forward_flag)) continue;
    const std::uint32_t target = ids[x - 1];
    if ((group.masks[t] >> (x - 1)) & 1u) {
      ++out.hit[target];
    } else {
      ++out.miss[target];
    }
    ++out.increments;
  }
}

/// PHASE 2 over tuples [begin, end) of one length group at column x
/// (Cond1 + Cond2: nearest downstream tagger with only forward ASes
/// strictly in between).
void count_forwarding(const IndexedDataset::Group& group, std::size_t begin, std::size_t end,
                      std::size_t x, const std::uint8_t* forward_flag,
                      const std::uint8_t* tagger_flag, PhaseCounters& out) {
  const std::size_t len = group.len;
  const std::uint8_t* alive = group.alive.empty() ? nullptr : group.alive.data();
  const std::uint32_t* ids = group.ids.data() + begin * len;
  for (std::size_t t = begin; t < end; ++t, ids += len) {
    if (alive != nullptr && !alive[t]) continue;  // tombstoned row
    if (!cond1(ids, x, forward_flag)) continue;
    std::size_t t_pos = 0;  // 1-based; 0 = not found
    for (std::size_t j = x; j < len; ++j) {
      const std::uint32_t id = ids[j];
      if (tagger_flag[id]) {
        t_pos = j + 1;
        break;
      }
      if (!forward_flag[id]) break;
    }
    if (t_pos == 0) continue;
    const std::uint32_t target = ids[x - 1];
    if ((group.masks[t] >> (t_pos - 1)) & 1u) {
      ++out.hit[target];
    } else {
      ++out.miss[target];
    }
    ++out.increments;
  }
}

/// Invokes fn(group, begin, end) for lane `lane`'s contiguous share of the
/// tuples eligible at column x (those in groups of length >= x). The
/// partition depends only on (eligible count, lanes), never on scheduling.
template <typename Fn>
void for_lane_slices(const std::vector<IndexedDataset::Group>& groups, std::size_t x,
                     std::size_t lane, std::size_t lanes, std::size_t eligible, Fn&& fn) {
  const std::size_t lo = lane * eligible / lanes;
  const std::size_t hi = (lane + 1) * eligible / lanes;
  std::size_t base = 0;
  for (const auto& group : groups) {
    if (group.len < x) continue;
    const std::size_t group_begin = base;
    const std::size_t group_end = base + group.count();
    base = group_end;
    if (group_end <= lo) continue;
    if (group_begin >= hi) break;
    fn(group, std::max(lo, group_begin) - group_begin, std::min(hi, group_end) - group_begin);
  }
}

}  // namespace

std::optional<TupleView> TupleView::prepare(const PathCommTuple& tuple) {
  if (tuple.path.empty() || tuple.path.size() > kMaxPathLength) return std::nullopt;
  TupleView view;
  view.path = &tuple.path;
  for (std::size_t i = 0; i < tuple.path.size(); ++i) {
    if (bgp::contains_upper(tuple.comms, tuple.path[i])) {
      view.upper_mask |= (1u << i);
    }
  }
  return view;
}

IndexedDataset::IndexedDataset(std::span<const TupleView> views) {
  std::unordered_map<bgp::Asn, std::uint32_t> ids;
  std::vector<Group> by_len(kMaxPathLength + 1);
  for (const auto& view : views) {
    const auto& path = *view.path;
    // TupleView::prepare never yields these, but the engines' contract is
    // that empty/overlong paths are ignored, not indexed out of bounds.
    if (path.empty() || path.size() > kMaxPathLength) continue;
    auto& group = by_len[path.size()];
    for (const auto asn : path) {
      const auto [it, inserted] =
          ids.try_emplace(asn, static_cast<std::uint32_t>(asns_.size()));
      if (inserted) asns_.push_back(asn);
      group.ids.push_back(it->second);
    }
    group.masks.push_back(view.upper_mask);
    max_len_ = std::max(max_len_, path.size());
    ++tuple_count_;
  }
  for (std::size_t len = 1; len <= kMaxPathLength; ++len) {
    if (by_len[len].masks.empty()) continue;
    by_len[len].len = static_cast<std::uint32_t>(len);
    groups_.push_back(std::move(by_len[len]));
  }
}

UsageCounters InferenceResult::counters(bgp::Asn asn) const {
  const auto it = counters_.find(asn);
  return it == counters_.end() ? UsageCounters{} : it->second;
}

UsageClass InferenceResult::usage(bgp::Asn asn) const { return usage(asn, thresholds_); }

UsageClass InferenceResult::usage(bgp::Asn asn, const Thresholds& th) const {
  return classify(counters(asn), th);
}

TaggingClass InferenceResult::tagging(bgp::Asn asn) const {
  return classify_tagging(counters(asn), thresholds_);
}

ForwardingClass InferenceResult::forwarding(bgp::Asn asn) const {
  return classify_forwarding(counters(asn), thresholds_);
}

InferenceResult sweep_columns(const IndexedDataset& data, const EngineConfig& config) {
  const std::size_t n = data.asn_count();
  std::vector<UsageCounters> counters(n);

  // Per-phase snapshots of the class predicates (deterministic counting).
  std::vector<std::uint8_t> forward_flag(n, 0);
  std::vector<std::uint8_t> tagger_flag(n, 0);
  const auto snapshot = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      forward_flag[i] = is_forward(counters[i], config.thresholds) ? 1 : 0;
      tagger_flag[i] = is_tagger(counters[i], config.thresholds) ? 1 : 0;
    }
  };

  // Lane resolution: explicit thread counts are honored even beyond the
  // machine's parallelism (bit-identical output makes that safe); auto mode
  // keeps small inputs serial, where the per-phase merge would dominate.
  constexpr std::size_t kAutoParallelCutoff = 8192;
  std::size_t lanes =
      config.threads != 0 ? config.threads : util::TaskPool::shared().parallelism();
  if (config.threads == 0 && data.tuple_count() < kAutoParallelCutoff) lanes = 1;
  lanes = std::max<std::size_t>(1, std::min(lanes, std::max<std::size_t>(1, data.tuple_count())));

  std::vector<PhaseCounters> lane_out(lanes);

  std::size_t columns = data.max_len();
  if (config.max_columns != 0) columns = std::min(columns, config.max_columns);

  // Runs one phase's counting across all lanes and merges the partials into
  // `counters` in lane order; returns the phase's total increments.
  const auto run_phase = [&](std::size_t x, bool phase2) -> std::uint64_t {
    std::size_t eligible = 0;
    for (const auto& group : data.groups()) {
      if (group.len >= x) eligible += group.count();
    }
    const auto lane_body = [&](std::size_t lane) {
      auto& out = lane_out[lane];
      out.reset(n);
      for_lane_slices(data.groups(), x, lane, lanes, eligible,
                      [&](const IndexedDataset::Group& group, std::size_t begin,
                          std::size_t end) {
                        if (phase2) {
                          count_forwarding(group, begin, end, x, forward_flag.data(),
                                           tagger_flag.data(), out);
                        } else {
                          count_tagging(group, begin, end, x, forward_flag.data(), out);
                        }
                      });
    };
    if (lanes == 1) {
      lane_body(0);
    } else {
      util::TaskPool::shared().parallel_for(lanes, lane_body);
    }
    std::uint64_t increments = 0;
    for (const auto& out : lane_out) {
      if (out.increments == 0) continue;  // all-zero partials add nothing
      increments += out.increments;
      for (std::size_t i = 0; i < n; ++i) {
        if (phase2) {
          counters[i].f += out.hit[i];
          counters[i].c += out.miss[i];
        } else {
          counters[i].t += out.hit[i];
          counters[i].s += out.miss[i];
        }
      }
    }
    return increments;
  };

  std::size_t swept = 0;
  for (std::size_t x = 1; x <= columns; ++x) {
    ++swept;
    // PHASE 1: count tagging at column x.
    snapshot();
    std::uint64_t increments = run_phase(x, /*phase2=*/false);
    // PHASE 2: count forwarding at column x. The snapshot now includes the
    // tagging evidence gathered in phase 1.
    snapshot();
    increments += run_phase(x, /*phase2=*/true);
    if (config.early_stop && increments == 0) break;
  }

  CounterMap out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& k = counters[i];
    if (k.t | k.s | k.f | k.c) out.emplace(data.asns()[i], k);
  }
  return InferenceResult(std::move(out), config.thresholds, swept);
}

InferenceResult sweep_columns(std::span<const TupleView> views, const EngineConfig& config) {
  return sweep_columns(IndexedDataset(views), config);
}

InferenceResult ColumnEngine::run(const Dataset& dataset) const {
  std::vector<TupleView> views;
  views.reserve(dataset.size());
  for (const auto& tuple : dataset) {
    if (auto view = TupleView::prepare(tuple)) views.push_back(*view);
  }
  return sweep_columns(views, config_);
}

}  // namespace bgpcu::core
