#include "mrt/table_dump_v2.h"

#include <cstring>

namespace bgpcu::mrt {

using bgp::ByteReader;
using bgp::ByteWriter;
using bgp::WireError;

PeerEntry PeerEntry::ipv4_peer(std::uint32_t bgp_id, std::uint32_t ipv4, bgp::Asn asn) {
  PeerEntry e;
  e.bgp_id = bgp_id;
  e.ipv6 = false;
  for (int i = 0; i < 4; ++i) {
    e.ip[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(ipv4 >> (24 - 8 * i));
  }
  e.asn = asn;
  e.as4 = true;
  return e;
}

std::vector<std::uint8_t> PeerIndexTable::encode() const {
  ByteWriter w;
  w.u32(collector_bgp_id);
  if (view_name.size() > 0xFFFF) throw WireError("view name too long");
  w.u16(static_cast<std::uint16_t>(view_name.size()));
  w.bytes(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(view_name.data()),
                                        view_name.size()));
  if (peers.size() > 0xFFFF) throw WireError("too many peers for PEER_INDEX_TABLE");
  w.u16(static_cast<std::uint16_t>(peers.size()));
  for (const auto& peer : peers) {
    // Peer type bits: 0x1 = IPv6 address, 0x2 = 4-byte ASN.
    w.u8(static_cast<std::uint8_t>((peer.ipv6 ? 0x1 : 0) | (peer.as4 ? 0x2 : 0)));
    w.u32(peer.bgp_id);
    w.bytes(std::span<const std::uint8_t>(peer.ip.data(), peer.ipv6 ? 16u : 4u));
    if (peer.as4) {
      w.u32(peer.asn);
    } else {
      if (!bgp::is_16bit_asn(peer.asn)) throw WireError("2-byte peer entry with 32-bit ASN");
      w.u16(static_cast<std::uint16_t>(peer.asn));
    }
  }
  return w.take();
}

PeerIndexTable PeerIndexTable::decode(std::span<const std::uint8_t> body) {
  ByteReader r(body);
  PeerIndexTable out;
  out.collector_bgp_id = r.u32();
  const std::uint16_t name_len = r.u16();
  const auto name = r.bytes(name_len);
  out.view_name.assign(reinterpret_cast<const char*>(name.data()), name.size());
  const std::uint16_t count = r.u16();
  out.peers.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    PeerEntry peer;
    const std::uint8_t type = r.u8();
    peer.ipv6 = (type & 0x1) != 0;
    peer.as4 = (type & 0x2) != 0;
    peer.bgp_id = r.u32();
    const auto ip = r.bytes(peer.ipv6 ? 16u : 4u);
    std::memcpy(peer.ip.data(), ip.data(), ip.size());
    peer.asn = peer.as4 ? r.u32() : r.u16();
    out.peers.push_back(peer);
  }
  if (!r.exhausted()) throw WireError("trailing bytes after PEER_INDEX_TABLE");
  return out;
}

std::vector<std::uint8_t> RibRecord::encode() const {
  ByteWriter w;
  w.u32(sequence);
  prefix.encode_nlri(w);
  if (entries.size() > 0xFFFF) throw WireError("too many RIB entries");
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const auto& entry : entries) {
    w.u16(entry.peer_index);
    w.u32(entry.originated_time);
    ByteWriter attrs;
    entry.attributes.encode(attrs, /*four_byte=*/true);
    if (attrs.size() > 0xFFFF) throw WireError("RIB entry attributes exceed 64KiB");
    w.u16(static_cast<std::uint16_t>(attrs.size()));
    w.bytes(attrs.buffer());
  }
  return w.take();
}

RibRecord RibRecord::decode(std::span<const std::uint8_t> body, TableDumpV2Subtype subtype) {
  RibRecord out;
  decode_into(body, subtype, out);
  return out;
}

void RibRecord::decode_into(std::span<const std::uint8_t> body, TableDumpV2Subtype subtype,
                            RibRecord& out) {
  ByteReader r(body);
  out.sequence = r.u32();
  const auto afi =
      subtype == TableDumpV2Subtype::kRibIpv4Unicast ? bgp::Afi::kIpv4 : bgp::Afi::kIpv6;
  out.prefix = bgp::Prefix::decode_nlri(r, afi);
  const std::uint16_t count = r.u16();
  // Grown one entry at a time rather than resized to `count` up front: a
  // corrupt count must not construct 65535 entries before the walk fails.
  for (std::size_t i = 0; i < count; ++i) {
    if (i == out.entries.size()) out.entries.emplace_back();
    RibEntry& entry = out.entries[i];
    entry.peer_index = r.u16();
    entry.originated_time = r.u32();
    const std::uint16_t attr_len = r.u16();
    bgp::PathAttributes::decode_into(r.sub(attr_len), /*four_byte=*/true, entry.attributes);
  }
  out.entries.resize(count);
  if (!r.exhausted()) throw WireError("trailing bytes after RIB record");
}

}  // namespace bgpcu::mrt
