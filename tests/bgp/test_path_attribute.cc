#include "bgp/path_attribute.h"

#include <gtest/gtest.h>

namespace bgpcu::bgp {
namespace {

PathAttributes round_trip(const PathAttributes& attrs, bool four_byte) {
  ByteWriter w;
  attrs.encode(w, four_byte);
  return PathAttributes::decode(ByteReader(w.buffer()), four_byte);
}

TEST(AsPath, SequenceHelpers) {
  auto p = AsPath::from_sequence({10, 20, 30});
  EXPECT_FALSE(p.has_as_set());
  EXPECT_EQ(p.to_string(), "10 20 30");
  EXPECT_EQ(p.first_asn(), 10u);
  p.prepend(5);
  EXPECT_EQ(p.first_asn(), 5u);
  EXPECT_EQ(p.to_string(), "5 10 20 30");
}

TEST(AsPath, AsSetHandling) {
  AsPath p({{SegmentType::kAsSequence, {10, 20}}, {SegmentType::kAsSet, {30, 40}}});
  EXPECT_TRUE(p.has_as_set());
  EXPECT_EQ(p.first_asn(), 10u);
  EXPECT_EQ(p.to_string(), "10 20 {30,40}");
}

TEST(AsPath, FourByteRoundTrip) {
  const auto p = AsPath::from_sequence({10, 4200000000u, 30});
  ByteWriter w;
  p.encode(w, /*four_byte=*/true);
  EXPECT_EQ(AsPath::decode(ByteReader(w.buffer()), true), p);
}

TEST(AsPath, TwoByteEncodingSubstitutesAsTrans) {
  const auto p = AsPath::from_sequence({10, 4200000000u});
  ByteWriter w;
  p.encode(w, /*four_byte=*/false);
  const auto decoded = AsPath::decode(ByteReader(w.buffer()), false);
  EXPECT_EQ(decoded, AsPath::from_sequence({10, kAsTrans}));
}

TEST(AsPath, DecodeRejectsUnknownSegmentType) {
  const std::uint8_t bogus[] = {9, 1, 0, 10};
  EXPECT_THROW((void)AsPath::decode(ByteReader(bogus), false), WireError);
}

TEST(AsPath, DecodeRejectsTruncatedSegment) {
  const std::uint8_t bogus[] = {2, 3, 0, 10};  // claims 3 ASNs, has half of one
  EXPECT_THROW((void)AsPath::decode(ByteReader(bogus), true), WireError);
}

TEST(PathAttributes, FullRoundTrip) {
  PathAttributes attrs;
  attrs.origin = Origin::kIgp;
  attrs.as_path = AsPath::from_sequence({10, 20, 4200000000u});
  attrs.next_hop = 0xC0000201;
  attrs.med = 50;
  attrs.local_pref = 100;
  attrs.atomic_aggregate = true;
  attrs.aggregator = {20, 0x0A000001};
  attrs.communities = {CommunityValue::regular(10, 1), CommunityValue::regular(20, 2)};
  attrs.large_communities = {CommunityValue::large(4200000000u, 1, 2)};
  EXPECT_EQ(round_trip(attrs, true), attrs);
}

TEST(PathAttributes, MinimalRoundTrip) {
  PathAttributes attrs;
  attrs.as_path = AsPath::from_sequence({10});
  EXPECT_EQ(round_trip(attrs, true), attrs);
  EXPECT_EQ(round_trip(attrs, false), attrs);
}

TEST(PathAttributes, UnknownAttributePreserved) {
  PathAttributes attrs;
  attrs.unknown.push_back(UnknownAttribute{0xC0, 99, {1, 2, 3}});
  const auto decoded = round_trip(attrs, true);
  ASSERT_EQ(decoded.unknown.size(), 1u);
  EXPECT_EQ(decoded.unknown[0].type, 99);
  EXPECT_EQ(decoded.unknown[0].body, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(PathAttributes, ExtendedLengthForLargeBodies) {
  PathAttributes attrs;
  for (std::uint16_t i = 0; i < 200; ++i) {
    attrs.communities.push_back(CommunityValue::regular(100, i));  // 800 bytes > 255
  }
  EXPECT_EQ(round_trip(attrs, true), attrs);
}

TEST(PathAttributes, AllCommunitiesMergesBothVariants) {
  PathAttributes attrs;
  attrs.communities = {CommunityValue::regular(10, 1)};
  attrs.large_communities = {CommunityValue::large(20, 2, 3)};
  const auto all = attrs.all_communities();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE(contains_upper(all, 10));
  EXPECT_TRUE(contains_upper(all, 20));
}

TEST(PathAttributes, DecodeRejectsMisalignedCommunities) {
  ByteWriter w;
  w.u8(0xC0);  // optional transitive
  w.u8(8);     // COMMUNITIES
  w.u8(3);     // not a multiple of 4
  w.u8(1);
  w.u8(2);
  w.u8(3);
  EXPECT_THROW((void)PathAttributes::decode(ByteReader(w.buffer()), true), WireError);
}

TEST(PathAttributes, DecodeRejectsMisalignedLargeCommunities) {
  ByteWriter w;
  w.u8(0xC0);
  w.u8(32);  // LARGE_COMMUNITIES
  w.u8(8);   // not a multiple of 12
  for (int i = 0; i < 8; ++i) w.u8(0);
  EXPECT_THROW((void)PathAttributes::decode(ByteReader(w.buffer()), true), WireError);
}

TEST(PathAttributes, DecodeRejectsBadOrigin) {
  ByteWriter w;
  w.u8(0x40);
  w.u8(1);  // ORIGIN
  w.u8(1);
  w.u8(9);  // invalid value
  EXPECT_THROW((void)PathAttributes::decode(ByteReader(w.buffer()), true), WireError);
}

TEST(PathAttributes, InnerLengthCannotEscapeAttributeBody) {
  // A COMMUNITIES attribute whose declared length exceeds remaining bytes.
  ByteWriter w;
  w.u8(0xC0);
  w.u8(8);
  w.u8(8);  // claims 8 bytes
  w.u32(0x000A0001);  // provides only 4
  EXPECT_THROW((void)PathAttributes::decode(ByteReader(w.buffer()), true), WireError);
}

TEST(PathAttributes, DecodeIntoResetsEveryField) {
  PathAttributes full;
  full.origin = Origin::kEgp;
  full.as_path = AsPath({{SegmentType::kAsSequence, {10, 20}}, {SegmentType::kAsSet, {30, 40}}});
  full.next_hop = 0xC0000201;
  full.med = 50;
  full.local_pref = 100;
  full.atomic_aggregate = true;
  full.aggregator = {20, 0x0A000001};
  full.communities = {CommunityValue::regular(10, 1)};
  full.large_communities = {CommunityValue::large(20, 1, 2)};
  full.unknown.push_back(UnknownAttribute{0xC0, 99, {1, 2, 3}});
  PathAttributes no_path;
  no_path.communities = {CommunityValue::regular(30, 3)};
  PathAttributes short_path;
  short_path.as_path = AsPath::from_sequence({50});

  PathAttributes reused;
  for (const auto* attrs : {&full, &no_path, &full, &short_path}) {
    ByteWriter w;
    attrs->encode(w, true);
    PathAttributes::decode_into(ByteReader(w.buffer()), true, reused);
    EXPECT_EQ(reused, *attrs);
  }
}

}  // namespace
}  // namespace bgpcu::bgp
