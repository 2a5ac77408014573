// MRT (Multi-Threaded Routing Toolkit, RFC 6396) record framing: the 12-byte
// common header and the type/subtype registry entries this library models.
#ifndef BGPCU_MRT_RECORD_H
#define BGPCU_MRT_RECORD_H

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/wire.h"

namespace bgpcu::mrt {

/// MRT top-level record types (RFC 6396 section 4).
enum class MrtType : std::uint16_t {
  kTableDumpV2 = 13,
  kBgp4mp = 16,
  kBgp4mpEt = 17,  ///< BGP4MP with microsecond timestamp extension.
};

/// TABLE_DUMP_V2 subtypes (RFC 6396 section 4.3).
enum class TableDumpV2Subtype : std::uint16_t {
  kPeerIndexTable = 1,
  kRibIpv4Unicast = 2,
  kRibIpv6Unicast = 4,
};

/// BGP4MP subtypes (RFC 6396 section 4.4).
enum class Bgp4mpSubtype : std::uint16_t {
  kStateChange = 0,
  kMessage = 1,
  kMessageAs4 = 4,
  kStateChangeAs4 = 5,
};

/// One MRT record as framed in a borrowed buffer: the common header fields
/// plus a view of the body. Valid only while the buffer is.
struct RecordView {
  std::uint32_t timestamp = 0;  ///< Seconds since the UNIX epoch.
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::span<const std::uint8_t> body;

  [[nodiscard]] MrtType mrt_type() const noexcept { return static_cast<MrtType>(type); }
};

/// One MRT record: common header fields plus the raw body. Decoding of the
/// body into typed structures happens in the table_dump_v2 / bgp4mp modules.
struct RawRecord {
  std::uint32_t timestamp = 0;  ///< Seconds since the UNIX epoch.
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::vector<std::uint8_t> body;

  [[nodiscard]] MrtType mrt_type() const noexcept { return static_cast<MrtType>(type); }

  /// Serializes header + body.
  void encode(bgp::ByteWriter& w) const;

  friend bool operator==(const RawRecord&, const RawRecord&) = default;
};

}  // namespace bgpcu::mrt

#endif  // BGPCU_MRT_RECORD_H
