#include "bgp/path_attribute.h"

#include <algorithm>

namespace bgpcu::bgp {

namespace {

// Attribute flag bits (RFC 4271 section 4.3).
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

// Writes one attribute with automatic extended-length selection.
void write_attribute(ByteWriter& w, std::uint8_t flags, AttrType type,
                     const std::vector<std::uint8_t>& body) {
  const bool extended = body.size() > 0xFF;
  w.u8(static_cast<std::uint8_t>(flags | (extended ? kFlagExtendedLength : 0)));
  w.u8(static_cast<std::uint8_t>(type));
  if (extended) {
    w.u16(static_cast<std::uint16_t>(body.size()));
  } else {
    w.u8(static_cast<std::uint8_t>(body.size()));
  }
  w.bytes(body);
}

std::vector<std::uint8_t> build_body(const auto& fill) {
  ByteWriter w;
  fill(w);
  return w.take();
}

}  // namespace

AsPath AsPath::from_sequence(std::vector<Asn> asns) {
  AsPath p;
  if (!asns.empty()) {
    p.segments_.push_back(AsPathSegment{SegmentType::kAsSequence, std::move(asns)});
  }
  return p;
}

bool AsPath::has_as_set() const noexcept {
  return std::any_of(segments_.begin(), segments_.end(),
                     [](const AsPathSegment& s) { return s.type == SegmentType::kAsSet; });
}

void AsPath::prepend(Asn asn) {
  if (!segments_.empty() && segments_.front().type == SegmentType::kAsSequence &&
      segments_.front().asns.size() < 255) {
    segments_.front().asns.insert(segments_.front().asns.begin(), asn);
  } else {
    segments_.insert(segments_.begin(), AsPathSegment{SegmentType::kAsSequence, {asn}});
  }
}

std::optional<Asn> AsPath::first_asn() const noexcept {
  for (const auto& seg : segments_) {
    if (seg.type == SegmentType::kAsSequence && !seg.asns.empty()) return seg.asns.front();
  }
  return std::nullopt;
}

std::string AsPath::to_string() const {
  std::string out;
  for (const auto& seg : segments_) {
    if (seg.type == SegmentType::kAsSet) {
      if (!out.empty()) out += ' ';
      out += '{';
      for (std::size_t i = 0; i < seg.asns.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(seg.asns[i]);
      }
      out += '}';
    } else {
      for (const Asn asn : seg.asns) {
        if (!out.empty()) out += ' ';
        out += std::to_string(asn);
      }
    }
  }
  return out;
}

void AsPath::encode(ByteWriter& w, bool four_byte) const {
  for (const auto& seg : segments_) {
    if (seg.asns.size() > 255) throw WireError("AS_PATH segment exceeds 255 ASNs");
    w.u8(static_cast<std::uint8_t>(seg.type));
    w.u8(static_cast<std::uint8_t>(seg.asns.size()));
    for (const Asn asn : seg.asns) {
      if (four_byte) {
        w.u32(asn);
      } else {
        w.u16(is_16bit_asn(asn) ? static_cast<std::uint16_t>(asn)
                                : static_cast<std::uint16_t>(kAsTrans));
      }
    }
  }
}

AsPath AsPath::decode(ByteReader r, bool four_byte) {
  AsPath out;
  decode_into(r, four_byte, out);
  return out;
}

void AsPath::decode_into(ByteReader r, bool four_byte, AsPath& out) {
  auto& segments = out.segments_;
  std::size_t used = 0;
  while (!r.exhausted()) {
    const std::uint8_t type = r.u8();
    if (type != static_cast<std::uint8_t>(SegmentType::kAsSet) &&
        type != static_cast<std::uint8_t>(SegmentType::kAsSequence)) {
      throw WireError("unknown AS_PATH segment type " + std::to_string(type));
    }
    const std::uint8_t count = r.u8();
    if (used == segments.size()) segments.emplace_back();
    AsPathSegment& seg = segments[used++];
    seg.type = static_cast<SegmentType>(type);
    seg.asns.clear();
    seg.asns.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
      seg.asns.push_back(four_byte ? r.u32() : r.u16());
    }
  }
  segments.resize(used);
}

CommunitySet PathAttributes::all_communities() const {
  CommunitySet out = communities;
  out.insert(out.end(), large_communities.begin(), large_communities.end());
  return out;
}

void PathAttributes::encode(ByteWriter& w, bool four_byte) const {
  if (origin) {
    write_attribute(w, kFlagTransitive, AttrType::kOrigin,
                    build_body([&](ByteWriter& b) { b.u8(static_cast<std::uint8_t>(*origin)); }));
  }
  if (as_path) {
    write_attribute(w, kFlagTransitive, AttrType::kAsPath,
                    build_body([&](ByteWriter& b) { as_path->encode(b, four_byte); }));
  }
  if (next_hop) {
    write_attribute(w, kFlagTransitive, AttrType::kNextHop,
                    build_body([&](ByteWriter& b) { b.u32(*next_hop); }));
  }
  if (med) {
    write_attribute(w, kFlagOptional, AttrType::kMultiExitDisc,
                    build_body([&](ByteWriter& b) { b.u32(*med); }));
  }
  if (local_pref) {
    write_attribute(w, kFlagTransitive, AttrType::kLocalPref,
                    build_body([&](ByteWriter& b) { b.u32(*local_pref); }));
  }
  if (atomic_aggregate) {
    write_attribute(w, kFlagTransitive, AttrType::kAtomicAggregate, {});
  }
  if (aggregator) {
    write_attribute(w, static_cast<std::uint8_t>(kFlagOptional | kFlagTransitive),
                    AttrType::kAggregator, build_body([&](ByteWriter& b) {
                      if (four_byte) {
                        b.u32(aggregator->first);
                      } else {
                        b.u16(is_16bit_asn(aggregator->first)
                                  ? static_cast<std::uint16_t>(aggregator->first)
                                  : static_cast<std::uint16_t>(kAsTrans));
                      }
                      b.u32(aggregator->second);
                    }));
  }
  if (!communities.empty()) {
    write_attribute(w, static_cast<std::uint8_t>(kFlagOptional | kFlagTransitive),
                    AttrType::kCommunities, build_body([&](ByteWriter& b) {
                      for (const auto& c : communities) {
                        if (c.kind != CommunityKind::kRegular) {
                          throw WireError("large community in COMMUNITIES attribute");
                        }
                        b.u32(c.packed_regular());
                      }
                    }));
  }
  if (mp_reach) {
    write_attribute(w, kFlagOptional, AttrType::kMpReachNlri, build_body([&](ByteWriter& b) {
                      b.u16(static_cast<std::uint16_t>(mp_reach->afi));
                      b.u8(1);  // SAFI unicast
                      if (mp_reach->next_hop.size() > 255) {
                        throw WireError("MP_REACH next hop too long");
                      }
                      b.u8(static_cast<std::uint8_t>(mp_reach->next_hop.size()));
                      b.bytes(mp_reach->next_hop);
                      b.u8(0);  // reserved
                      for (const auto& p : mp_reach->nlri) p.encode_nlri(b);
                    }));
  }
  if (mp_unreach) {
    write_attribute(w, kFlagOptional, AttrType::kMpUnreachNlri,
                    build_body([&](ByteWriter& b) {
                      b.u16(static_cast<std::uint16_t>(mp_unreach->afi));
                      b.u8(1);  // SAFI unicast
                      for (const auto& p : mp_unreach->withdrawn) p.encode_nlri(b);
                    }));
  }
  if (!large_communities.empty()) {
    write_attribute(w, static_cast<std::uint8_t>(kFlagOptional | kFlagTransitive),
                    AttrType::kLargeCommunities, build_body([&](ByteWriter& b) {
                      for (const auto& c : large_communities) {
                        if (c.kind != CommunityKind::kLarge) {
                          throw WireError("regular community in LARGE_COMMUNITIES attribute");
                        }
                        b.u32(c.upper);
                        b.u32(c.low1);
                        b.u32(c.low2);
                      }
                    }));
  }
  for (const auto& attr : unknown) {
    write_attribute(w, static_cast<std::uint8_t>(attr.flags & ~kFlagExtendedLength),
                    static_cast<AttrType>(attr.type), attr.body);
  }
}

PathAttributes PathAttributes::decode(ByteReader r, bool four_byte) {
  PathAttributes out;
  decode_into(r, four_byte, out);
  return out;
}

void PathAttributes::decode_into(ByteReader r, bool four_byte, PathAttributes& out) {
  // Back to the empty block. `as_path` stays engaged until the walk is over,
  // so a block that carries one decodes it into the old segment vectors.
  out.origin.reset();
  out.next_hop.reset();
  out.med.reset();
  out.local_pref.reset();
  out.atomic_aggregate = false;
  out.aggregator.reset();
  out.communities.clear();
  out.large_communities.clear();
  out.mp_reach.reset();
  out.mp_unreach.reset();
  out.unknown.clear();
  bool has_as_path = false;
  while (!r.exhausted()) {
    const std::uint8_t flags = r.u8();
    const std::uint8_t type = r.u8();
    const std::size_t length = (flags & kFlagExtendedLength) ? r.u16() : r.u8();
    ByteReader body = r.sub(length);
    switch (static_cast<AttrType>(type)) {
      case AttrType::kOrigin: {
        const std::uint8_t v = body.u8();
        if (v > 2) throw WireError("invalid ORIGIN value " + std::to_string(v));
        out.origin = static_cast<Origin>(v);
        break;
      }
      case AttrType::kAsPath:
        if (!out.as_path) out.as_path.emplace();
        AsPath::decode_into(body, four_byte, *out.as_path);
        has_as_path = true;
        break;
      case AttrType::kNextHop:
        out.next_hop = body.u32();
        break;
      case AttrType::kMultiExitDisc:
        out.med = body.u32();
        break;
      case AttrType::kLocalPref:
        out.local_pref = body.u32();
        break;
      case AttrType::kAtomicAggregate:
        out.atomic_aggregate = true;
        break;
      case AttrType::kAggregator: {
        const Asn asn = four_byte ? body.u32() : body.u16();
        out.aggregator = std::make_pair(asn, body.u32());
        break;
      }
      case AttrType::kCommunities: {
        if (length % 4 != 0) throw WireError("COMMUNITIES length not multiple of 4");
        out.communities.reserve(length / 4);
        while (!body.exhausted()) {
          out.communities.push_back(CommunityValue::from_packed_regular(body.u32()));
        }
        break;
      }
      case AttrType::kMpReachNlri: {
        MpReach mp;
        const std::uint16_t afi = body.u16();
        if (afi != 1 && afi != 2) throw WireError("MP_REACH bad AFI " + std::to_string(afi));
        mp.afi = static_cast<Afi>(afi);
        const std::uint8_t safi = body.u8();
        if (safi != 1) throw WireError("MP_REACH unsupported SAFI " + std::to_string(safi));
        const std::uint8_t nh_len = body.u8();
        const auto nh = body.bytes(nh_len);
        mp.next_hop.assign(nh.begin(), nh.end());
        body.skip(1);  // reserved
        while (!body.exhausted()) mp.nlri.push_back(Prefix::decode_nlri(body, mp.afi));
        out.mp_reach = std::move(mp);
        break;
      }
      case AttrType::kMpUnreachNlri: {
        MpUnreach mp;
        const std::uint16_t afi = body.u16();
        if (afi != 1 && afi != 2) throw WireError("MP_UNREACH bad AFI " + std::to_string(afi));
        mp.afi = static_cast<Afi>(afi);
        const std::uint8_t safi = body.u8();
        if (safi != 1) throw WireError("MP_UNREACH unsupported SAFI " + std::to_string(safi));
        while (!body.exhausted()) mp.withdrawn.push_back(Prefix::decode_nlri(body, mp.afi));
        out.mp_unreach = std::move(mp);
        break;
      }
      case AttrType::kLargeCommunities: {
        if (length % 12 != 0) throw WireError("LARGE_COMMUNITIES length not multiple of 12");
        out.large_communities.reserve(length / 12);
        while (!body.exhausted()) {
          const Asn admin = body.u32();
          const std::uint32_t v1 = body.u32();
          const std::uint32_t v2 = body.u32();
          out.large_communities.push_back(CommunityValue::large(admin, v1, v2));
        }
        break;
      }
      default: {
        const auto raw = body.bytes(body.remaining());
        out.unknown.push_back(
            UnknownAttribute{flags, type, std::vector<std::uint8_t>(raw.begin(), raw.end())});
        break;
      }
    }
  }
  if (!has_as_path) out.as_path.reset();
}

}  // namespace bgpcu::bgp
