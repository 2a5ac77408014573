#include "mrt/bgp4mp.h"

#include <gtest/gtest.h>

#include "bgp/message.h"

namespace bgpcu::mrt {
namespace {

Bgp4mpMessage sample_message(bool as4 = true) {
  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath::from_sequence({3356, 1299});
  update.nlri = {bgp::Prefix::parse("203.0.113.0/24")};
  return Bgp4mpMessage::ipv4_session(3356, 12654, 0xC0A80001, 0xC0A80002, update.encode(as4),
                                     as4);
}

TEST(Bgp4mpMessage, RoundTripAs4) {
  const auto m = sample_message();
  EXPECT_EQ(m.subtype(), Bgp4mpSubtype::kMessageAs4);
  EXPECT_EQ(Bgp4mpMessage::decode(m.encode(), m.subtype()), m);
}

TEST(Bgp4mpMessage, RoundTripTwoByte) {
  const auto m = sample_message(false);
  EXPECT_EQ(m.subtype(), Bgp4mpSubtype::kMessage);
  EXPECT_EQ(Bgp4mpMessage::decode(m.encode(), m.subtype()), m);
}

TEST(Bgp4mpMessage, TwoByteEncodeRejects32BitAsn) {
  auto m = sample_message(false);
  m.peer_asn = 4200000001u;
  EXPECT_THROW((void)m.encode(), bgp::WireError);
}

TEST(Bgp4mpMessage, InnerBgpMessageDecodes) {
  const auto m = sample_message();
  const auto decoded = Bgp4mpMessage::decode(m.encode(), m.subtype());
  const auto update = bgp::UpdateMessage::decode(decoded.bgp_message, decoded.as4);
  EXPECT_EQ(update.nlri.size(), 1u);
  EXPECT_EQ(update.attributes.as_path->first_asn(), 3356u);
}

TEST(Bgp4mpMessage, BadAddressFamilyRejected) {
  auto body = sample_message().encode();
  // AFI lives after peer(4) + local(4) + ifindex(2) = offset 10..11.
  body[10] = 0;
  body[11] = 9;
  EXPECT_THROW((void)Bgp4mpMessage::decode(body, Bgp4mpSubtype::kMessageAs4), bgp::WireError);
}

TEST(Bgp4mpMessage, WrongSubtypeRejected) {
  const auto m = sample_message();
  EXPECT_THROW((void)Bgp4mpMessage::decode(m.encode(), Bgp4mpSubtype::kStateChange),
               bgp::WireError);
}

TEST(Bgp4mpStateChange, RoundTrip) {
  Bgp4mpStateChange change;
  change.peer_asn = 3356;
  change.local_asn = 12654;
  change.old_state = BgpState::kOpenConfirm;
  change.new_state = BgpState::kEstablished;
  EXPECT_EQ(Bgp4mpStateChange::decode(change.encode(), change.subtype()), change);
}

TEST(Bgp4mpStateChange, OutOfRangeStateRejected) {
  Bgp4mpStateChange change;
  auto body = change.encode();
  body[body.size() - 1] = 9;
  EXPECT_THROW((void)Bgp4mpStateChange::decode(body, change.subtype()), bgp::WireError);
}

TEST(Bgp4mpMessage, DecodeIntoViewsTheMessageInPlace) {
  auto v6 = sample_message();
  v6.ipv6 = true;
  v6.peer_ip.fill(0x20);
  v6.local_ip.fill(0x21);
  auto v4 = sample_message(false);

  Bgp4mpMessage reused;
  for (const auto* m : {&v6, &v4}) {
    const auto body = m->encode();
    const auto message = Bgp4mpMessage::decode_into(body, m->subtype(), reused);
    EXPECT_GE(message.data(), body.data());
    EXPECT_EQ(message.data() + message.size(), body.data() + body.size()) << "a view, no copy";
    EXPECT_TRUE(reused.bgp_message.empty());
    reused.bgp_message.assign(message.begin(), message.end());
    EXPECT_EQ(reused, *m) << "no IPv6 address bytes survive into the IPv4 session";
  }
}

}  // namespace
}  // namespace bgpcu::mrt
