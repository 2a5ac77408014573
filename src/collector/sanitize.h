// The §4.1 sanitation pipeline, applied to every raw route entry before
// inference, in the paper's order:
//   1. drop entries referencing unallocated prefixes or ASNs,
//   2. remove AS_SET segments from AS paths (aggregated routes),
//   3. prepend the MRT Peer AS Number when A1 differs from it (route-server
//      sessions: the RS can modify communities yet hides from the path),
//   4. collapse path prepending (identical ASNs in succession).
#ifndef BGPCU_COLLECTOR_SANITIZE_H
#define BGPCU_COLLECTOR_SANITIZE_H

#include <cstdint>
#include <optional>

#include "bgp/path_attribute.h"
#include "bgp/prefix.h"
#include "core/types.h"
#include "registry/registry.h"

namespace bgpcu::collector {

/// One raw route observation before sanitation, as `process` takes it.
struct RawEntry {
  bgp::Prefix prefix;
  bgp::Asn session_peer_asn = 0;  ///< MRT peer ASN (the RS's on RS sessions).
  bgp::AsPath as_path;
  bgp::CommunitySet comms;  ///< Merged regular + large communities.
  bool from_rib = false;
};

/// Per-step drop/repair counters.
struct SanitationStats {
  std::uint64_t input = 0;
  std::uint64_t dropped_unallocated_prefix = 0;
  std::uint64_t dropped_unallocated_asn = 0;
  std::uint64_t as_sets_removed = 0;   ///< Entries whose path had AS_SETs removed.
  std::uint64_t peer_prepended = 0;    ///< Entries with A1 != MRT peer ASN.
  std::uint64_t prepending_collapsed = 0;
  std::uint64_t dropped_empty_path = 0;
  std::uint64_t output = 0;

  SanitationStats& operator+=(const SanitationStats& other) noexcept;
};

/// Stateless per-entry sanitizer.
class Sanitizer {
 public:
  explicit Sanitizer(const registry::AllocationRegistry& reg) : registry_(&reg) {}

  /// Applies the full pipeline; returns the cleaned tuple or nullopt when
  /// the entry is dropped. Thread-compatible (stats are per-instance).
  std::optional<core::PathCommTuple> process(const RawEntry& entry);

  /// `process` on one route given by its parts, writing the cleaned tuple
  /// into `out` and reusing its buffers; the tuple's communities are the
  /// normalized union of `communities` and `large_communities`. Returns
  /// false when the entry is dropped, leaving `out` unspecified.
  bool process_into(const bgp::Prefix& prefix, bgp::Asn session_peer_asn,
                    const bgp::AsPath& as_path, const bgp::CommunitySet& communities,
                    const bgp::CommunitySet& large_communities, core::PathCommTuple& out);

  [[nodiscard]] const SanitationStats& stats() const noexcept { return stats_; }

 private:
  const registry::AllocationRegistry* registry_;
  SanitationStats stats_;
};

}  // namespace bgpcu::collector

#endif  // BGPCU_COLLECTOR_SANITIZE_H
