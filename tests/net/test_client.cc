// net::Client session hooks that net::ResilientClient builds on: pump()
// over every kind of frame a server sends unasked, and the handshake
// deadline. The server end of a loopback pair is written by hand, so each
// frame the client sees is exactly the one under test.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "api/wire.h"
#include "net/client.h"
#include "net/framer.h"
#include "net/loopback.h"

namespace bgpcu::net {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> next_frame(Connection& conn, FrameBuffer& frames) {
  std::vector<std::uint8_t> chunk(4096);
  for (;;) {
    auto frame = frames.extract();
    if (!frame.empty()) return frame;
    const auto n = conn.read_some(chunk);
    if (n == 0) return {};
    frames.append(std::span(chunk.data(), n));
  }
}

TEST(NetClient, PumpHandlesUnsolicitedFrames) {
  auto [client_end, server] = make_loopback_pair();
  FrameBuffer frames;
  // The welcome waits in the pipe, so the constructor's handshake completes
  // without a server thread.
  ASSERT_TRUE(server->write_all(api::encode_welcome({api::kProtocolVersion, 3, std::nullopt})));
  Client client(std::move(client_end));
  EXPECT_EQ(client.welcome().epoch, 3u);
  EXPECT_EQ(api::decode_hello(next_frame(*server, frames)).protocol, api::kProtocolVersion);

  // A ping is answered with a pong echoing its nonce.
  ASSERT_TRUE(server->write_all(api::encode_ping({41})));
  EXPECT_TRUE(client.pump());
  EXPECT_EQ(api::decode_ping(next_frame(*server, frames), api::FrameType::kPong).nonce, 41u);

  // An event is buffered, and buffered_event() pops it without reading.
  const api::EventFrame event{
      7, {5, {{100, {}, {core::TaggingClass::kTagger, core::ForwardingClass::kNone}}}}};
  ASSERT_TRUE(server->write_all(api::encode_event(event)));
  EXPECT_FALSE(client.buffered_event().has_value());
  EXPECT_TRUE(client.pump());
  EXPECT_EQ(client.buffered_event(), event);
  EXPECT_FALSE(client.buffered_event().has_value());

  // A pong is accepted and leaves nothing behind.
  ASSERT_TRUE(server->write_all(api::encode_ping({42}, api::FrameType::kPong)));
  EXPECT_TRUE(client.pump());
  EXPECT_FALSE(client.buffered_event().has_value());

  // Sheds, errors and frames a server never sends unasked throw; each
  // consumes its frame, so the session reads on.
  ASSERT_TRUE(server->write_all(api::encode_busy({0, 25, "full"})));
  try {
    (void)client.pump();
    FAIL() << "kBusy must throw";
  } catch (const BusyError& e) {
    EXPECT_EQ(e.retry_after_ms(), 25u);
  }
  ASSERT_TRUE(server->write_all(api::encode_error({0, api::ErrorCode::kBadRequest, "no"})));
  try {
    (void)client.pump();
    FAIL() << "kError must throw";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.error().code, api::ErrorCode::kBadRequest);
  }
  ASSERT_TRUE(server->write_all(api::encode_welcome({})));
  EXPECT_THROW((void)client.pump(), TransportError);

  // An expired read deadline returns false and leaves the session usable.
  client.set_read_timeout(20ms);
  EXPECT_FALSE(client.pump());
  ASSERT_TRUE(server->write_all(api::encode_ping({43})));
  EXPECT_TRUE(client.pump());
  EXPECT_EQ(api::decode_ping(next_frame(*server, frames), api::FrameType::kPong).nonce, 43u);

  // End-of-stream returns false.
  client.set_read_timeout(0ms);
  server->shutdown_write();
  EXPECT_FALSE(client.pump());
}

TEST(NetClient, HandshakeDeadlineBoundsASilentListener) {
  // The server end accepts but never speaks. Without the deadline the
  // constructor would wait forever; a watchdog hangs up after 10 s, so a
  // regression fails the timing check instead of hanging the suite.
  auto [client_end, server] = make_loopback_pair();
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::jthread watchdog([&mutex, &cv, &done, conn = server.get()] {
    std::unique_lock lock(mutex);
    if (!cv.wait_for(lock, 10s, [&] { return done; })) conn->close();
  });

  client_end->set_read_timeout(100ms);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)Client(std::move(client_end)), TransportError);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  {
    const std::lock_guard lock(mutex);
    done = true;
  }
  cv.notify_all();
  EXPECT_GE(elapsed, 100ms);
  EXPECT_LT(elapsed, 5s) << "the handshake outlived its deadline";
}

}  // namespace
}  // namespace bgpcu::net
