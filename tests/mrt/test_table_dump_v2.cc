#include "mrt/table_dump_v2.h"

#include <gtest/gtest.h>

namespace bgpcu::mrt {
namespace {

PeerIndexTable sample_table() {
  PeerIndexTable t;
  t.collector_bgp_id = 0xC6000001;
  t.view_name = "rrc-test";
  t.peers.push_back(PeerEntry::ipv4_peer(0x0A000001, 0xC0A80001, 3356));
  t.peers.push_back(PeerEntry::ipv4_peer(0x0A000002, 0xC0A80002, 4200000001u));
  return t;
}

TEST(PeerIndexTable, RoundTrip) {
  const auto t = sample_table();
  EXPECT_EQ(PeerIndexTable::decode(t.encode()), t);
}

TEST(PeerIndexTable, Ipv6PeerRoundTrip) {
  PeerIndexTable t;
  PeerEntry peer;
  peer.ipv6 = true;
  peer.ip = {0x20, 0x01, 0x0d, 0xb8};
  peer.asn = 65000;
  peer.as4 = true;
  peer.bgp_id = 7;
  t.peers.push_back(peer);
  EXPECT_EQ(PeerIndexTable::decode(t.encode()), t);
}

TEST(PeerIndexTable, TwoByteAsnPeer) {
  PeerIndexTable t;
  PeerEntry peer = PeerEntry::ipv4_peer(1, 2, 3356);
  peer.as4 = false;
  t.peers.push_back(peer);
  EXPECT_EQ(PeerIndexTable::decode(t.encode()), t);
}

TEST(PeerIndexTable, TwoByteEntryRejects32BitAsn) {
  PeerIndexTable t;
  PeerEntry peer = PeerEntry::ipv4_peer(1, 2, 4200000001u);
  peer.as4 = false;
  t.peers.push_back(peer);
  EXPECT_THROW((void)t.encode(), bgp::WireError);
}

TEST(PeerIndexTable, TrailingBytesRejected) {
  auto body = sample_table().encode();
  body.push_back(0);
  EXPECT_THROW((void)PeerIndexTable::decode(body), bgp::WireError);
}

RibRecord sample_rib() {
  RibRecord rib;
  rib.sequence = 42;
  rib.prefix = bgp::Prefix::parse("203.0.113.0/24");
  RibEntry e;
  e.peer_index = 1;
  e.originated_time = 1621382400;
  e.attributes.origin = bgp::Origin::kIgp;
  e.attributes.as_path = bgp::AsPath::from_sequence({3356, 1299, 64496});
  e.attributes.communities = {bgp::CommunityValue::regular(3356, 100)};
  e.attributes.large_communities = {bgp::CommunityValue::large(4200000001u, 1, 2)};
  rib.entries.push_back(std::move(e));
  return rib;
}

TEST(RibRecord, RoundTrip) {
  const auto rib = sample_rib();
  EXPECT_EQ(RibRecord::decode(rib.encode(), rib.subtype()), rib);
}

TEST(RibRecord, SubtypeFollowsAfi) {
  RibRecord v4;
  v4.prefix = bgp::Prefix::parse("10.0.0.0/8");
  EXPECT_EQ(v4.subtype(), TableDumpV2Subtype::kRibIpv4Unicast);
  RibRecord v6;
  v6.prefix = bgp::Prefix::parse("2001:db8::/32");
  EXPECT_EQ(v6.subtype(), TableDumpV2Subtype::kRibIpv6Unicast);
  EXPECT_EQ(RibRecord::decode(v6.encode(), v6.subtype()).prefix, v6.prefix);
}

TEST(RibRecord, MultipleEntriesRoundTrip) {
  auto rib = sample_rib();
  RibEntry e2;
  e2.peer_index = 0;
  e2.originated_time = 100;
  e2.attributes.as_path = bgp::AsPath::from_sequence({1299});
  rib.entries.push_back(e2);
  EXPECT_EQ(RibRecord::decode(rib.encode(), rib.subtype()), rib);
}

TEST(RibRecord, TruncatedBodyRejected) {
  auto body = sample_rib().encode();
  body.resize(body.size() - 2);
  EXPECT_THROW((void)RibRecord::decode(body, TableDumpV2Subtype::kRibIpv4Unicast),
               bgp::WireError);
}

TEST(RibRecord, TrailingBytesRejected) {
  auto body = sample_rib().encode();
  body.push_back(0xAA);
  EXPECT_THROW((void)RibRecord::decode(body, TableDumpV2Subtype::kRibIpv4Unicast),
               bgp::WireError);
}

TEST(RibRecord, DecodeIntoAReusedRecordMatchesDecode) {
  // Three entries, then one without AS_PATH, then two: each decode_into
  // into the same object must equal a fresh decode.
  auto three = sample_rib();
  three.entries.push_back(three.entries[0]);
  three.entries.push_back(three.entries[0]);
  three.entries[1].attributes.as_path = bgp::AsPath(
      {{bgp::SegmentType::kAsSequence, {1299}}, {bgp::SegmentType::kAsSet, {64496, 64497}}});
  RibRecord one;
  one.prefix = bgp::Prefix::parse("198.51.100.0/24");
  one.entries.emplace_back();
  one.entries[0].peer_index = 3;
  auto two = sample_rib();
  two.entries.push_back(two.entries[0]);
  two.entries[1].attributes.communities.clear();

  RibRecord reused;
  for (const auto* rib : {&three, &one, &two}) {
    RibRecord::decode_into(rib->encode(), rib->subtype(), reused);
    EXPECT_EQ(reused, *rib);
    EXPECT_EQ(reused, RibRecord::decode(rib->encode(), rib->subtype()));
  }
}

}  // namespace
}  // namespace bgpcu::mrt
