// BGP path attributes (RFC 4271 section 4.3 / 5.1) with the attributes the
// paper's pipeline consumes: ORIGIN, AS_PATH (AS_SET / AS_SEQUENCE, 2- and
// 4-byte encodings), NEXT_HOP, MED, LOCAL_PREF, ATOMIC_AGGREGATE, AGGREGATOR,
// COMMUNITIES (RFC 1997), LARGE_COMMUNITIES (RFC 8092). Unrecognized
// attributes survive a decode/encode round trip verbatim.
#ifndef BGPCU_BGP_PATH_ATTRIBUTE_H
#define BGPCU_BGP_PATH_ATTRIBUTE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/asn.h"
#include "bgp/community.h"
#include "bgp/prefix.h"
#include "bgp/wire.h"

namespace bgpcu::bgp {

/// Path attribute type codes (IANA BGP Path Attributes registry).
enum class AttrType : std::uint8_t {
  kOrigin = 1,
  kAsPath = 2,
  kNextHop = 3,
  kMultiExitDisc = 4,
  kLocalPref = 5,
  kAtomicAggregate = 6,
  kAggregator = 7,
  kCommunities = 8,
  kMpReachNlri = 14,
  kMpUnreachNlri = 15,
  kAs4Path = 17,
  kAs4Aggregator = 18,
  kLargeCommunities = 32,
};

/// ORIGIN attribute values.
enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

/// AS_PATH segment types.
enum class SegmentType : std::uint8_t { kAsSet = 1, kAsSequence = 2 };

/// One AS_PATH segment: an ordered sequence or an unordered set (produced by
/// route aggregation).
struct AsPathSegment {
  SegmentType type = SegmentType::kAsSequence;
  std::vector<Asn> asns;

  friend bool operator==(const AsPathSegment&, const AsPathSegment&) = default;
};

/// The AS_PATH attribute: a list of segments. Provides the manipulation
/// primitives the sanitizer needs (AS_SET detection, prepend collapsing) and
/// both 2-byte and 4-byte wire codecs.
class AsPath {
 public:
  AsPath() = default;
  explicit AsPath(std::vector<AsPathSegment> segments) : segments_(std::move(segments)) {}

  /// Builds a pure AS_SEQUENCE path from `asns` (left-most = most recent hop).
  static AsPath from_sequence(std::vector<Asn> asns);

  [[nodiscard]] const std::vector<AsPathSegment>& segments() const noexcept { return segments_; }
  [[nodiscard]] bool empty() const noexcept { return segments_.empty(); }

  /// True if any segment is an AS_SET.
  [[nodiscard]] bool has_as_set() const noexcept;

  /// Prepends one ASN (as routers do when propagating).
  void prepend(Asn asn);

  /// Left-most ASN of the first AS_SEQUENCE segment, if any.
  [[nodiscard]] std::optional<Asn> first_asn() const noexcept;

  /// "1 2 {3,4} 5" style text form.
  [[nodiscard]] std::string to_string() const;

  /// Encodes with 2-byte (`four_byte = false`, 32-bit ASNs become AS_TRANS)
  /// or 4-byte ASN encoding.
  void encode(ByteWriter& w, bool four_byte) const;

  /// Decodes a whole attribute body.
  static AsPath decode(ByteReader r, bool four_byte);

  /// `decode` into `out`, reusing its segment vectors. On a throw `out` is
  /// valid but unspecified.
  static void decode_into(ByteReader r, bool four_byte, AsPath& out);

  friend bool operator==(const AsPath&, const AsPath&) = default;

 private:
  std::vector<AsPathSegment> segments_;
};

/// An attribute this library does not model; preserved byte-for-byte.
struct UnknownAttribute {
  std::uint8_t flags = 0;
  std::uint8_t type = 0;
  std::vector<std::uint8_t> body;

  friend bool operator==(const UnknownAttribute&, const UnknownAttribute&) = default;
};

/// MP_REACH_NLRI (RFC 4760 section 3): multiprotocol announcements — how
/// IPv6 routes travel in BGP UPDATEs. SAFI is fixed to unicast (1).
struct MpReach {
  Afi afi = Afi::kIpv6;
  std::vector<std::uint8_t> next_hop;  ///< 16 or 32 bytes for IPv6.
  std::vector<Prefix> nlri;

  friend bool operator==(const MpReach&, const MpReach&) = default;
};

/// MP_UNREACH_NLRI (RFC 4760 section 4): multiprotocol withdrawals.
struct MpUnreach {
  Afi afi = Afi::kIpv6;
  std::vector<Prefix> withdrawn;

  friend bool operator==(const MpUnreach&, const MpUnreach&) = default;
};

/// Decoded path-attribute block of one UPDATE / RIB entry.
///
/// Regular and large communities are held separately because they travel in
/// distinct attributes; `all_communities()` produces the merged view the
/// inference pipeline works on.
struct PathAttributes {
  std::optional<Origin> origin;
  std::optional<AsPath> as_path;
  std::optional<std::uint32_t> next_hop;  ///< IPv4 next hop, host order.
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;
  bool atomic_aggregate = false;
  std::optional<std::pair<Asn, std::uint32_t>> aggregator;  ///< (ASN, IPv4 addr).
  CommunitySet communities;        ///< RFC 1997 values (kind == kRegular).
  CommunitySet large_communities;  ///< RFC 8092 values (kind == kLarge).
  std::optional<MpReach> mp_reach;      ///< RFC 4760 announcements (IPv6).
  std::optional<MpUnreach> mp_unreach;  ///< RFC 4760 withdrawals (IPv6).
  std::vector<UnknownAttribute> unknown;

  /// Merged regular + large communities in wire order.
  [[nodiscard]] CommunitySet all_communities() const;

  /// Serializes all present attributes. `four_byte` selects AS_PATH ASN width
  /// (BGP4MP_MESSAGE vs BGP4MP_MESSAGE_AS4 / TABLE_DUMP_V2, which is always
  /// 4-byte).
  void encode(ByteWriter& w, bool four_byte) const;

  /// Decodes an attribute block of exactly `r.remaining()` bytes.
  static PathAttributes decode(ByteReader r, bool four_byte);

  /// `decode` into `out`, reusing the AS_PATH segment vectors and both
  /// community vectors. On a throw `out` is valid but unspecified.
  static void decode_into(ByteReader r, bool four_byte, PathAttributes& out);

  friend bool operator==(const PathAttributes&, const PathAttributes&) = default;
};

}  // namespace bgpcu::bgp

#endif  // BGPCU_BGP_PATH_ATTRIBUTE_H
