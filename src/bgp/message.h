// BGP-4 message framing (RFC 4271 section 4): the 19-byte header with its
// all-ones marker plus the UPDATE body. OPEN and KEEPALIVE are modeled to the
// extent MRT BGP4MP streams need them.
#ifndef BGPCU_BGP_MESSAGE_H
#define BGPCU_BGP_MESSAGE_H

#include <cstdint>
#include <vector>

#include "bgp/path_attribute.h"
#include "bgp/prefix.h"
#include "bgp/wire.h"

namespace bgpcu::bgp {

/// BGP message type codes.
enum class MessageType : std::uint8_t {
  kOpen = 1,
  kUpdate = 2,
  kNotification = 3,
  kKeepalive = 4,
};

/// Maximum BGP message size (RFC 4271). The encoder enforces this; split
/// NLRI across messages to stay within it.
inline constexpr std::size_t kMaxMessageSize = 4096;

/// A BGP UPDATE: withdrawn prefixes, a path-attribute block, and announced
/// NLRI sharing those attributes. Only IPv4 NLRI travels in the classic
/// UPDATE fields; this is what the collector simulation emits.
struct UpdateMessage {
  std::vector<Prefix> withdrawn;
  PathAttributes attributes;
  std::vector<Prefix> nlri;

  /// Serializes including the 19-byte header. `four_byte` selects the
  /// AS_PATH ASN width negotiated by the (simulated) session.
  [[nodiscard]] std::vector<std::uint8_t> encode(bool four_byte) const;

  /// Parses a full message (header + body); throws WireError if the message
  /// is not a well-formed UPDATE.
  static UpdateMessage decode(std::span<const std::uint8_t> message, bool four_byte);

  /// `decode` into `out`, reusing its prefix vectors and attribute buffers.
  /// On a throw `out` is valid but unspecified.
  static void decode_into(std::span<const std::uint8_t> message, bool four_byte,
                          UpdateMessage& out);

  friend bool operator==(const UpdateMessage&, const UpdateMessage&) = default;
};

/// Minimal OPEN body (version, ASN, hold time, BGP identifier; capabilities
/// left empty) — enough to round-trip BGP4MP state-change captures.
struct OpenMessage {
  std::uint8_t version = 4;
  std::uint16_t my_asn = 0;  ///< AS_TRANS when the speaker's ASN is 32-bit.
  std::uint16_t hold_time = 180;
  std::uint32_t bgp_id = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static OpenMessage decode(std::span<const std::uint8_t> message);

  friend bool operator==(const OpenMessage&, const OpenMessage&) = default;
};

/// Encodes a KEEPALIVE (header only).
[[nodiscard]] std::vector<std::uint8_t> encode_keepalive();

/// Reads and validates a message header; returns its type and total length.
struct MessageHeader {
  MessageType type = MessageType::kKeepalive;
  std::uint16_t length = 0;
};
[[nodiscard]] MessageHeader peek_header(std::span<const std::uint8_t> message);

}  // namespace bgpcu::bgp

#endif  // BGPCU_BGP_MESSAGE_H
