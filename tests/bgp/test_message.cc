#include "bgp/message.h"

#include <gtest/gtest.h>

namespace bgpcu::bgp {
namespace {

UpdateMessage sample_update() {
  UpdateMessage u;
  u.attributes.origin = Origin::kIgp;
  u.attributes.as_path = AsPath::from_sequence({10, 20, 30});
  u.attributes.next_hop = 0xC0000201;
  u.attributes.communities = {CommunityValue::regular(10, 1)};
  u.nlri = {Prefix::parse("203.0.113.0/24"), Prefix::parse("198.51.100.0/25")};
  return u;
}

TEST(UpdateMessage, RoundTrip) {
  const auto u = sample_update();
  const auto wire = u.encode(true);
  EXPECT_EQ(UpdateMessage::decode(wire, true), u);
}

TEST(UpdateMessage, RoundTripWithWithdrawals) {
  UpdateMessage u;
  u.withdrawn = {Prefix::parse("192.0.2.0/24")};
  const auto wire = u.encode(true);
  const auto decoded = UpdateMessage::decode(wire, true);
  EXPECT_EQ(decoded.withdrawn, u.withdrawn);
  EXPECT_TRUE(decoded.nlri.empty());
}

TEST(UpdateMessage, HeaderMarkerAndLength) {
  const auto wire = sample_update().encode(true);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(wire[static_cast<std::size_t>(i)], 0xFF);
  const auto header = peek_header(wire);
  EXPECT_EQ(header.type, MessageType::kUpdate);
  EXPECT_EQ(header.length, wire.size());
}

TEST(UpdateMessage, CorruptMarkerRejected) {
  auto wire = sample_update().encode(true);
  wire[3] = 0x00;
  EXPECT_THROW((void)UpdateMessage::decode(wire, true), WireError);
}

TEST(UpdateMessage, LengthMismatchRejected) {
  auto wire = sample_update().encode(true);
  wire.push_back(0);  // trailing garbage conflicts with header length
  EXPECT_THROW((void)UpdateMessage::decode(wire, true), WireError);
}

TEST(UpdateMessage, TruncatedBodyRejected) {
  auto wire = sample_update().encode(true);
  wire.resize(wire.size() - 3);
  EXPECT_THROW((void)UpdateMessage::decode(wire, true), WireError);
}

TEST(UpdateMessage, WrongTypeRejected) {
  const auto keepalive = encode_keepalive();
  EXPECT_THROW((void)UpdateMessage::decode(keepalive, true), WireError);
}

TEST(UpdateMessage, TwoVsFourByteEncodingDiffer) {
  UpdateMessage u;
  u.attributes.as_path = AsPath::from_sequence({10, 4200000000u});
  const auto wire2 = u.encode(false);
  const auto wire4 = u.encode(true);
  EXPECT_NE(wire2, wire4);
  const auto decoded2 = UpdateMessage::decode(wire2, false);
  EXPECT_EQ(decoded2.attributes.as_path, AsPath::from_sequence({10, kAsTrans}));
}

TEST(OpenMessage, RoundTrip) {
  OpenMessage open;
  open.my_asn = 64999;
  open.hold_time = 90;
  open.bgp_id = 0x0A000001;
  EXPECT_EQ(OpenMessage::decode(open.encode()), open);
}

TEST(Keepalive, HeaderOnly) {
  const auto wire = encode_keepalive();
  EXPECT_EQ(wire.size(), 19u);
  EXPECT_EQ(peek_header(wire).type, MessageType::kKeepalive);
}

TEST(PeekHeader, RejectsShortBuffer) {
  const std::vector<std::uint8_t> tiny(5, 0xFF);
  EXPECT_THROW((void)peek_header(tiny), WireError);
}

TEST(PeekHeader, RejectsUnknownType) {
  std::vector<std::uint8_t> wire(19, 0xFF);
  wire[16] = 0;
  wire[17] = 19;
  wire[18] = 9;  // bogus type
  EXPECT_THROW((void)peek_header(wire), WireError);
}

TEST(UpdateMessage, DecodeIntoAReusedMessageMatchesDecode) {
  UpdateMessage withdrawals;
  withdrawals.withdrawn = {Prefix::parse("192.0.2.0/24"), Prefix::parse("192.0.3.0/24")};
  auto announce = sample_update();
  UpdateMessage reused;
  for (const auto* u : {&withdrawals, &announce, &withdrawals}) {
    UpdateMessage::decode_into(u->encode(true), true, reused);
    EXPECT_EQ(reused, *u);
  }
}

}  // namespace
}  // namespace bgpcu::bgp
