// Real-socket smoke test: the same protocol stack over an actual TCP
// listener on an ephemeral 127.0.0.1 port. The deterministic conformance
// suite lives in test_protocol.cc over loopback; this only proves the
// socket transport carries it end to end.
#include <gtest/gtest.h>

#include <memory>

#include "api/service.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"

namespace bgpcu::net {
namespace {

core::PathCommTuple tuple(bgp::Asn peer, bgp::Asn origin, bool tags) {
  core::PathCommTuple t;
  t.path = {peer, origin};
  if (tags) {
    t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(peer), 1));
  }
  return t;
}

TEST(NetTcp, QueriesAndSubscriptionsOverARealSocket) {
  api::Service service({.stream = {.window_epochs = 1}});
  (void)service.ingest({tuple(10, 20, true), tuple(11, 20, false)});

  auto listener = std::make_shared<TcpListener>("127.0.0.1", 0);
  ASSERT_NE(listener->port(), 0) << "ephemeral bind must resolve to a real port";
  Server server(service, listener, {.auth_token = "hunter2"});
  server.start();

  Client client(tcp_connect("127.0.0.1", listener->port()), {.token = "hunter2"});
  EXPECT_EQ(client.welcome().protocol, api::kProtocolVersion);

  const auto stats = client.query({.kind = api::QueryKind::kStats});
  ASSERT_TRUE(stats.stats.has_value());
  EXPECT_EQ(stats.stats->live_tuples, 2u);

  (void)client.subscribe({});
  (void)service.publish();  // first publish: everything changes from nn
  const auto event = client.next_event();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->delta.epoch, 0u);
  EXPECT_FALSE(event->delta.changes.empty());

  const auto class_of = client.query({.kind = api::QueryKind::kClassOf, .asn = 10});
  ASSERT_TRUE(class_of.asn_class.has_value());
  EXPECT_EQ(class_of.asn_class->usage.code(), "tn");
  EXPECT_EQ(class_of.asn_class->usage.code(),
            service.query({.kind = api::QueryKind::kClassOf, .asn = 10})
                .asn_class->usage.code());

  const auto wrong_token = [&] {
    try {
      Client bad(tcp_connect("127.0.0.1", listener->port()), {.token = "nope"});
      return false;
    } catch (const ProtocolError& e) {
      return e.error().code == api::ErrorCode::kAuthFailed;
    }
  }();
  EXPECT_TRUE(wrong_token);

  server.stop();
}

}  // namespace
}  // namespace bgpcu::net
