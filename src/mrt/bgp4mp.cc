#include "mrt/bgp4mp.h"

#include <cstring>

namespace bgpcu::mrt {

using bgp::ByteReader;
using bgp::ByteWriter;
using bgp::WireError;

namespace {

void put_ipv4(std::array<std::uint8_t, 16>& out, std::uint32_t addr) {
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(addr >> (24 - 8 * i));
  }
}

// Shared session-header codec for MESSAGE and STATE_CHANGE bodies.
template <typename T>
void encode_session(ByteWriter& w, const T& rec) {
  if (rec.as4) {
    w.u32(rec.peer_asn);
    w.u32(rec.local_asn);
  } else {
    if (!bgp::is_16bit_asn(rec.peer_asn) || !bgp::is_16bit_asn(rec.local_asn)) {
      throw WireError("BGP4MP 2-byte subtype with 32-bit ASN");
    }
    w.u16(static_cast<std::uint16_t>(rec.peer_asn));
    w.u16(static_cast<std::uint16_t>(rec.local_asn));
  }
  w.u16(rec.interface_index);
  w.u16(rec.ipv6 ? 2 : 1);  // address family: 1 = IPv4, 2 = IPv6
  const std::size_t ip_len = rec.ipv6 ? 16u : 4u;
  w.bytes(std::span<const std::uint8_t>(rec.peer_ip.data(), ip_len));
  w.bytes(std::span<const std::uint8_t>(rec.local_ip.data(), ip_len));
}

template <typename T>
void decode_session(ByteReader& r, T& rec, bool as4) {
  rec.as4 = as4;
  rec.peer_asn = as4 ? r.u32() : r.u16();
  rec.local_asn = as4 ? r.u32() : r.u16();
  rec.interface_index = r.u16();
  const std::uint16_t afi = r.u16();
  if (afi != 1 && afi != 2) throw WireError("BGP4MP bad address family " + std::to_string(afi));
  rec.ipv6 = afi == 2;
  const std::size_t ip_len = rec.ipv6 ? 16u : 4u;
  const auto peer = r.bytes(ip_len);
  const auto local = r.bytes(ip_len);
  // Zero first: an IPv4 session fills 4 of the 16 bytes, and a reused
  // record must not keep a previous IPv6 session's tail.
  rec.peer_ip = {};
  rec.local_ip = {};
  std::memcpy(rec.peer_ip.data(), peer.data(), ip_len);
  std::memcpy(rec.local_ip.data(), local.data(), ip_len);
}

}  // namespace

Bgp4mpMessage Bgp4mpMessage::ipv4_session(bgp::Asn peer_asn, bgp::Asn local_asn,
                                          std::uint32_t peer_ip, std::uint32_t local_ip,
                                          std::vector<std::uint8_t> message, bool as4) {
  Bgp4mpMessage m;
  m.peer_asn = peer_asn;
  m.local_asn = local_asn;
  m.as4 = as4;
  put_ipv4(m.peer_ip, peer_ip);
  put_ipv4(m.local_ip, local_ip);
  m.bgp_message = std::move(message);
  return m;
}

std::vector<std::uint8_t> Bgp4mpMessage::encode() const {
  ByteWriter w;
  encode_session(w, *this);
  w.bytes(bgp_message);
  return w.take();
}

Bgp4mpMessage Bgp4mpMessage::decode(std::span<const std::uint8_t> body, Bgp4mpSubtype subtype) {
  Bgp4mpMessage out;
  const auto msg = decode_into(body, subtype, out);
  out.bgp_message.assign(msg.begin(), msg.end());
  return out;
}

std::span<const std::uint8_t> Bgp4mpMessage::decode_into(std::span<const std::uint8_t> body,
                                                         Bgp4mpSubtype subtype,
                                                         Bgp4mpMessage& out) {
  if (subtype != Bgp4mpSubtype::kMessage && subtype != Bgp4mpSubtype::kMessageAs4) {
    throw WireError("not a BGP4MP message subtype");
  }
  ByteReader r(body);
  decode_session(r, out, subtype == Bgp4mpSubtype::kMessageAs4);
  out.bgp_message.clear();
  return r.bytes(r.remaining());
}

std::vector<std::uint8_t> Bgp4mpStateChange::encode() const {
  ByteWriter w;
  encode_session(w, *this);
  w.u16(static_cast<std::uint16_t>(old_state));
  w.u16(static_cast<std::uint16_t>(new_state));
  return w.take();
}

Bgp4mpStateChange Bgp4mpStateChange::decode(std::span<const std::uint8_t> body,
                                            Bgp4mpSubtype subtype) {
  if (subtype != Bgp4mpSubtype::kStateChange && subtype != Bgp4mpSubtype::kStateChangeAs4) {
    throw WireError("not a BGP4MP state-change subtype");
  }
  ByteReader r(body);
  Bgp4mpStateChange out;
  decode_session(r, out, subtype == Bgp4mpSubtype::kStateChangeAs4);
  const std::uint16_t old_state = r.u16();
  const std::uint16_t new_state = r.u16();
  if (old_state < 1 || old_state > 6 || new_state < 1 || new_state > 6) {
    throw WireError("BGP4MP state out of range");
  }
  out.old_state = static_cast<BgpState>(old_state);
  out.new_state = static_cast<BgpState>(new_state);
  if (!r.exhausted()) throw WireError("trailing bytes after STATE_CHANGE");
  return out;
}

}  // namespace bgpcu::mrt
