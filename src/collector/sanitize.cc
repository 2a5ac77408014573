#include "collector/sanitize.h"

namespace bgpcu::collector {

SanitationStats& SanitationStats::operator+=(const SanitationStats& other) noexcept {
  input += other.input;
  dropped_unallocated_prefix += other.dropped_unallocated_prefix;
  dropped_unallocated_asn += other.dropped_unallocated_asn;
  as_sets_removed += other.as_sets_removed;
  peer_prepended += other.peer_prepended;
  prepending_collapsed += other.prepending_collapsed;
  dropped_empty_path += other.dropped_empty_path;
  output += other.output;
  return *this;
}

std::optional<core::PathCommTuple> Sanitizer::process(const RawEntry& entry) {
  core::PathCommTuple tuple;
  if (!process_into(entry.prefix, entry.session_peer_asn, entry.as_path, entry.comms, {}, tuple)) {
    return std::nullopt;
  }
  return tuple;
}

bool Sanitizer::process_into(const bgp::Prefix& prefix, bgp::Asn session_peer_asn,
                             const bgp::AsPath& as_path, const bgp::CommunitySet& communities,
                             const bgp::CommunitySet& large_communities,
                             core::PathCommTuple& out) {
  ++stats_.input;

  // Step 1 — allocation filter.
  if (!registry_->prefix_allocated(prefix)) {
    ++stats_.dropped_unallocated_prefix;
    return false;
  }
  for (const auto& segment : as_path.segments()) {
    for (const bgp::Asn asn : segment.asns) {
      if (!registry_->is_public_allocated(asn)) {
        ++stats_.dropped_unallocated_asn;
        return false;
      }
    }
  }

  // Step 2 — AS_SET removal (keep the sequence segments).
  if (as_path.has_as_set()) ++stats_.as_sets_removed;
  const auto first = as_path.first_asn();
  if (!first) {
    ++stats_.dropped_empty_path;
    return false;
  }

  // Step 3 — peer-ASN prepend (route-server sessions).
  out.path.clear();
  if (*first != session_peer_asn) {
    out.path.push_back(session_peer_asn);
    ++stats_.peer_prepended;
  }

  // Step 4 — prepending collapse, while copying the sequence ASNs after the
  // peer. The prepended peer differs from the first ASN, so it never
  // collapses.
  bool collapsed = false;
  for (const auto& segment : as_path.segments()) {
    if (segment.type != bgp::SegmentType::kAsSequence) continue;
    for (const bgp::Asn asn : segment.asns) {
      if (!out.path.empty() && out.path.back() == asn) {
        collapsed = true;
        continue;
      }
      out.path.push_back(asn);
    }
  }
  if (collapsed) ++stats_.prepending_collapsed;

  out.comms.assign(communities.begin(), communities.end());
  out.comms.insert(out.comms.end(), large_communities.begin(), large_communities.end());
  bgp::normalize(out.comms);
  ++stats_.output;
  return true;
}

}  // namespace bgpcu::collector
