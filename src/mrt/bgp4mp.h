// BGP4MP records (RFC 6396 section 4.4): BGP messages as captured on a
// collector session, with 2-byte (MESSAGE) and 4-byte (MESSAGE_AS4) peer ASN
// encodings, plus session state changes.
#ifndef BGPCU_MRT_BGP4MP_H
#define BGPCU_MRT_BGP4MP_H

#include <array>
#include <cstdint>
#include <vector>

#include "bgp/asn.h"
#include "bgp/prefix.h"
#include "mrt/record.h"

namespace bgpcu::mrt {

/// A captured BGP message plus the session addressing that RFC 6396 wraps
/// around it. `as4` mirrors the record subtype (MESSAGE vs MESSAGE_AS4) and
/// dictates both the header ASN width and the AS_PATH encoding inside
/// `bgp_message`.
struct Bgp4mpMessage {
  bgp::Asn peer_asn = 0;
  bgp::Asn local_asn = 0;
  std::uint16_t interface_index = 0;
  bool ipv6 = false;
  std::array<std::uint8_t, 16> peer_ip{};
  std::array<std::uint8_t, 16> local_ip{};
  bool as4 = true;
  std::vector<std::uint8_t> bgp_message;  ///< Full message incl. 19-byte header.

  /// Convenience constructor for an IPv4 session.
  static Bgp4mpMessage ipv4_session(bgp::Asn peer_asn, bgp::Asn local_asn, std::uint32_t peer_ip,
                                    std::uint32_t local_ip, std::vector<std::uint8_t> message,
                                    bool as4 = true);

  [[nodiscard]] Bgp4mpSubtype subtype() const noexcept {
    return as4 ? Bgp4mpSubtype::kMessageAs4 : Bgp4mpSubtype::kMessage;
  }

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static Bgp4mpMessage decode(std::span<const std::uint8_t> body, Bgp4mpSubtype subtype);

  /// Decodes the session fields of `body` into `out` and returns the
  /// captured BGP message as a view into `body`, so a caller that parses the
  /// message in place copies nothing. `out.bgp_message` is cleared; `decode`
  /// is this call plus the copy.
  static std::span<const std::uint8_t> decode_into(std::span<const std::uint8_t> body,
                                                   Bgp4mpSubtype subtype, Bgp4mpMessage& out);

  friend bool operator==(const Bgp4mpMessage&, const Bgp4mpMessage&) = default;
};

/// BGP FSM states used by STATE_CHANGE records.
enum class BgpState : std::uint16_t {
  kIdle = 1,
  kConnect = 2,
  kActive = 3,
  kOpenSent = 4,
  kOpenConfirm = 5,
  kEstablished = 6,
};

/// A session state transition record.
struct Bgp4mpStateChange {
  bgp::Asn peer_asn = 0;
  bgp::Asn local_asn = 0;
  std::uint16_t interface_index = 0;
  bool ipv6 = false;
  std::array<std::uint8_t, 16> peer_ip{};
  std::array<std::uint8_t, 16> local_ip{};
  bool as4 = true;
  BgpState old_state = BgpState::kIdle;
  BgpState new_state = BgpState::kIdle;

  [[nodiscard]] Bgp4mpSubtype subtype() const noexcept {
    return as4 ? Bgp4mpSubtype::kStateChangeAs4 : Bgp4mpSubtype::kStateChange;
  }

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static Bgp4mpStateChange decode(std::span<const std::uint8_t> body, Bgp4mpSubtype subtype);

  friend bool operator==(const Bgp4mpStateChange&, const Bgp4mpStateChange&) = default;
};

}  // namespace bgpcu::mrt

#endif  // BGPCU_MRT_BGP4MP_H
