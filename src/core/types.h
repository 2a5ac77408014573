// The inference algorithm's input model: unique (AS path, community set)
// tuples as extracted from collector RIBs and updates (§4), where the path
// is A1..An (A1 = collector peer, An = origin) and the community set is
// output(A1), the peer's community output observed at the collector.
#ifndef BGPCU_CORE_TYPES_H
#define BGPCU_CORE_TYPES_H

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "bgp/asn.h"
#include "bgp/community.h"

namespace bgpcu::core {

/// One observation unit: a sanitized AS path plus the community set seen with
/// it. The inference method operates on *unique* tuples (§4), so equality
/// and hashing are defined over normalized members.
struct PathCommTuple {
  std::vector<bgp::Asn> path;  ///< A1 (collector peer) .. An (origin).
  bgp::CommunitySet comms;     ///< output(A1); normalized (sorted, unique).

  [[nodiscard]] bool empty() const noexcept { return path.empty(); }
  [[nodiscard]] bgp::Asn peer() const { return path.front(); }
  [[nodiscard]] bgp::Asn origin() const { return path.back(); }

  /// "A1 A2 ... An | c1 c2 ..." debug form.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const PathCommTuple&, const PathCommTuple&) = default;
};

/// A deduplicated tuple collection, the unit of input to the engines.
using Dataset = std::vector<PathCommTuple>;

/// The order of a deduplicated dataset: paths lexicographically, then
/// community sets. The paths are compared in one three-way pass, so a sort's
/// inner loop walks each pair of paths once.
struct TupleLess {
  bool operator()(const PathCommTuple& a, const PathCommTuple& b) const noexcept {
    const auto path_cmp = std::lexicographical_compare_three_way(
        a.path.begin(), a.path.end(), b.path.begin(), b.path.end());
    if (path_cmp != 0) return path_cmp < 0;
    return a.comms < b.comms;
  }
};

/// Sorts + deduplicates `tuples` in place (normalizing each community set
/// first) into `TupleLess` order and returns the number of duplicates
/// removed.
std::size_t deduplicate(Dataset& tuples);

/// All distinct ASNs appearing in any path of `tuples`, sorted.
[[nodiscard]] std::vector<bgp::Asn> distinct_asns(const Dataset& tuples);

}  // namespace bgpcu::core

template <>
struct std::hash<bgpcu::core::PathCommTuple> {
  std::size_t operator()(const bgpcu::core::PathCommTuple& t) const noexcept {
    std::size_t h = 14695981039346656037ull;
    for (const auto asn : t.path) h = (h ^ asn) * 1099511628211ull;
    for (const auto& c : t.comms) {
      h = (h ^ std::hash<bgpcu::bgp::CommunityValue>{}(c)) * 1099511628211ull;
    }
    return h;
  }
};

#endif  // BGPCU_CORE_TYPES_H
