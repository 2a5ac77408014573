// TABLE_DUMP_V2 RIB snapshot records (RFC 6396 section 4.3): the
// PEER_INDEX_TABLE that maps peer indices to (BGP ID, IP, ASN) and the
// per-prefix RIB records holding one entry per peer that carries the route.
#ifndef BGPCU_MRT_TABLE_DUMP_V2_H
#define BGPCU_MRT_TABLE_DUMP_V2_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bgp/asn.h"
#include "bgp/path_attribute.h"
#include "bgp/prefix.h"
#include "mrt/record.h"

namespace bgpcu::mrt {

/// One peer in the PEER_INDEX_TABLE.
struct PeerEntry {
  std::uint32_t bgp_id = 0;
  bool ipv6 = false;  ///< Address family of `ip`.
  std::array<std::uint8_t, 16> ip{};
  bgp::Asn asn = 0;
  bool as4 = true;  ///< Whether the ASN is encoded in 4 bytes.

  /// Convenience constructor for an IPv4 peer.
  static PeerEntry ipv4_peer(std::uint32_t bgp_id, std::uint32_t ipv4, bgp::Asn asn);

  friend bool operator==(const PeerEntry&, const PeerEntry&) = default;
};

/// PEER_INDEX_TABLE: emitted once at the head of each RIB dump; RIB entries
/// reference peers by their index in this table.
struct PeerIndexTable {
  std::uint32_t collector_bgp_id = 0;
  std::string view_name;
  std::vector<PeerEntry> peers;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static PeerIndexTable decode(std::span<const std::uint8_t> body);

  friend bool operator==(const PeerIndexTable&, const PeerIndexTable&) = default;
};

/// One route for a prefix as seen from one peer.
struct RibEntry {
  std::uint16_t peer_index = 0;
  std::uint32_t originated_time = 0;
  bgp::PathAttributes attributes;  ///< AS_PATH always 4-byte in TABLE_DUMP_V2.

  friend bool operator==(const RibEntry&, const RibEntry&) = default;
};

/// RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record: a prefix plus the per-peer
/// routes for it.
struct RibRecord {
  std::uint32_t sequence = 0;
  bgp::Prefix prefix;
  std::vector<RibEntry> entries;

  /// Subtype implied by the prefix address family.
  [[nodiscard]] TableDumpV2Subtype subtype() const noexcept {
    return prefix.afi() == bgp::Afi::kIpv4 ? TableDumpV2Subtype::kRibIpv4Unicast
                                           : TableDumpV2Subtype::kRibIpv6Unicast;
  }

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static RibRecord decode(std::span<const std::uint8_t> body, TableDumpV2Subtype subtype);

  /// `decode` into `out`, reusing its entries and their attribute buffers.
  /// On a throw `out` is valid but unspecified.
  static void decode_into(std::span<const std::uint8_t> body, TableDumpV2Subtype subtype,
                          RibRecord& out);

  friend bool operator==(const RibRecord&, const RibRecord&) = default;
};

}  // namespace bgpcu::mrt

#endif  // BGPCU_MRT_TABLE_DUMP_V2_H
