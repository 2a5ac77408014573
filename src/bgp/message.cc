#include "bgp/message.h"

#include <algorithm>

namespace bgpcu::bgp {

namespace {

constexpr std::size_t kHeaderSize = 19;

void write_header(ByteWriter& w, MessageType type, std::size_t body_size) {
  const std::size_t total = kHeaderSize + body_size;
  if (total > kMaxMessageSize) {
    throw WireError("BGP message size " + std::to_string(total) + " exceeds 4096");
  }
  for (int i = 0; i < 16; ++i) w.u8(0xFF);
  w.u16(static_cast<std::uint16_t>(total));
  w.u8(static_cast<std::uint8_t>(type));
}

ByteReader open_body(std::span<const std::uint8_t> message, MessageType expected) {
  const MessageHeader header = peek_header(message);
  if (header.type != expected) {
    throw WireError("unexpected BGP message type " +
                    std::to_string(static_cast<unsigned>(header.type)));
  }
  if (header.length != message.size()) {
    throw WireError("BGP header length " + std::to_string(header.length) +
                    " != buffer size " + std::to_string(message.size()));
  }
  ByteReader r(message);
  r.skip(kHeaderSize);
  return r;
}

}  // namespace

MessageHeader peek_header(std::span<const std::uint8_t> message) {
  if (message.size() < kHeaderSize) throw WireError("BGP message shorter than header");
  for (std::size_t i = 0; i < 16; ++i) {
    if (message[i] != 0xFF) throw WireError("BGP marker is not all-ones");
  }
  ByteReader r(message.subspan(16));
  MessageHeader header;
  header.length = r.u16();
  const std::uint8_t type = r.u8();
  if (type < 1 || type > 4) throw WireError("unknown BGP message type " + std::to_string(type));
  header.type = static_cast<MessageType>(type);
  if (header.length < kHeaderSize) throw WireError("BGP header length below minimum");
  return header;
}

std::vector<std::uint8_t> UpdateMessage::encode(bool four_byte) const {
  ByteWriter body;
  ByteWriter withdrawn_w;
  for (const auto& p : withdrawn) {
    if (p.afi() != Afi::kIpv4) throw WireError("classic UPDATE carries IPv4 withdrawals only");
    p.encode_nlri(withdrawn_w);
  }
  body.u16(static_cast<std::uint16_t>(withdrawn_w.size()));
  body.bytes(withdrawn_w.buffer());

  ByteWriter attrs_w;
  attributes.encode(attrs_w, four_byte);
  body.u16(static_cast<std::uint16_t>(attrs_w.size()));
  body.bytes(attrs_w.buffer());

  for (const auto& p : nlri) {
    if (p.afi() != Afi::kIpv4) throw WireError("classic UPDATE carries IPv4 NLRI only");
    p.encode_nlri(body);
  }

  ByteWriter out;
  write_header(out, MessageType::kUpdate, body.size());
  out.bytes(body.buffer());
  return out.take();
}

UpdateMessage UpdateMessage::decode(std::span<const std::uint8_t> message, bool four_byte) {
  UpdateMessage out;
  decode_into(message, four_byte, out);
  return out;
}

void UpdateMessage::decode_into(std::span<const std::uint8_t> message, bool four_byte,
                                UpdateMessage& out) {
  ByteReader r = open_body(message, MessageType::kUpdate);

  const std::uint16_t withdrawn_len = r.u16();
  ByteReader withdrawn_r = r.sub(withdrawn_len);
  out.withdrawn.clear();
  while (!withdrawn_r.exhausted()) {
    out.withdrawn.push_back(Prefix::decode_nlri(withdrawn_r, Afi::kIpv4));
  }

  const std::uint16_t attrs_len = r.u16();
  PathAttributes::decode_into(r.sub(attrs_len), four_byte, out.attributes);

  out.nlri.clear();
  while (!r.exhausted()) {
    out.nlri.push_back(Prefix::decode_nlri(r, Afi::kIpv4));
  }
}

std::vector<std::uint8_t> OpenMessage::encode() const {
  ByteWriter body;
  body.u8(version);
  body.u16(my_asn);
  body.u16(hold_time);
  body.u32(bgp_id);
  body.u8(0);  // no optional parameters
  ByteWriter out;
  write_header(out, MessageType::kOpen, body.size());
  out.bytes(body.buffer());
  return out.take();
}

OpenMessage OpenMessage::decode(std::span<const std::uint8_t> message) {
  ByteReader r = open_body(message, MessageType::kOpen);
  OpenMessage out;
  out.version = r.u8();
  out.my_asn = r.u16();
  out.hold_time = r.u16();
  out.bgp_id = r.u32();
  const std::uint8_t opt_len = r.u8();
  r.skip(opt_len);
  return out;
}

std::vector<std::uint8_t> encode_keepalive() {
  ByteWriter out;
  write_header(out, MessageType::kKeepalive, 0);
  return out.take();
}

}  // namespace bgpcu::bgp
