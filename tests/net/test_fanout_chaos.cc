// Fan-out under injected faults (ctest label: chaos — excluded by the
// 'fast' preset): healthy poller-driven subscribers, fault-wrapped peers
// whose links are cut mid-stream (served by the same event loops as every
// other connection), and deliberately lazy peers that never drain, all
// against one event-driven server. The survivors must
// receive exactly the published sequence, gap-free and in order, while the
// cut peers die quietly and the lazy peers are shed by byte backpressure —
// losing a slow or broken subscriber must never cost a healthy one a
// single event.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "counter_baseline.h"
#include "net/fault.h"
#include "net/framer.h"
#include "net/loopback.h"
#include "net/poller.h"
#include "net/server.h"

namespace bgpcu::net {
namespace {

using namespace std::chrono_literals;

core::PathCommTuple tuple(bgp::Asn peer, bgp::Asn origin, bool tags) {
  core::PathCommTuple t;
  t.path = {peer, origin};
  if (tags) {
    t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(peer), 1));
  }
  return t;
}

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

bool eventually(const std::function<bool()>& condition) {
  for (int i = 0; i < 800; ++i) {
    if (condition()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return condition();
}

struct Sub {
  std::unique_ptr<Connection> conn;
  FrameBuffer frames;
  api::SubscriptionFilter filter;
  std::vector<api::EpochDelta> deltas;
  bool eof = false;
};

TEST(FanoutChaos, SurvivorsStayGapFreeWhileCutAndLazyPeersAreShed) {
  constexpr std::size_t kSubs = 48;   // every 4th one gets its link cut
  constexpr std::size_t kLazy = 4;    // subscribed, then never read again
  // 60 epochs publish ~18 KiB of events per match-all subscription — more
  // than twice the 8 KiB byte bound plus the 1 KiB pipe, so a peer that
  // never reads must overflow, while a continuously drained one would have
  // to lag ~30 epochs to come anywhere near the bound.
  constexpr stream::Epoch kEpochs = 60;
  constexpr bgp::Asn kAsnSpace = 96;
  const auto is_faulty = [](std::size_t i) { return i % 4 == 3; };

  // window_epochs = 1: the driver flips tagging parity every epoch, so a
  // longer window would union consecutive epochs and publish no changes.
  api::Service service({.stream = {.shards = 4, .window_epochs = 1}});
  // Tiny pipes + a small byte bound: a peer that stops draining backs up
  // almost immediately, while a continuously drained one never comes close.
  auto inner = std::make_shared<LoopbackListener>(/*capacity=*/1024);
  auto listener = std::make_shared<FaultyListener>(
      inner, [&](std::size_t i) -> FaultPlan {
        if (i < kSubs && is_faulty(i)) {
          // Past the handshake and subscribe ack, inside the event stream.
          return FaultPlan::cut_write_at(400 + 37 * static_cast<std::uint64_t>(i));
        }
        return {};
      });
  Server server(service, listener,
                {.max_connections = kSubs + kLazy + 4,
                 .write_queue_bytes_limit = 8 * 1024,
                 .io_threads = 2,
                 .worker_threads = 2});
  const CounterBaseline counted;
  server.start();

  std::vector<Sub> subs(kSubs);
  for (std::size_t i = 0; i < kSubs; ++i) {
    auto& sub = subs[i];
    if (i % 2 == 0) {
      for (std::size_t k = 0; k < 4; ++k) {
        sub.filter.watch.push_back(
            static_cast<bgp::Asn>(1 + (i * 11 + k * 23) % kAsnSpace));
      }
    }  // odd indices keep the match-all filter
    sub.conn = inner->connect();
    ASSERT_TRUE(sub.conn->write_all(api::encode_hello({api::kProtocolVersion, ""})));
    auto frame = next_frame(*sub.conn, sub.frames);
    ASSERT_FALSE(frame.empty()) << "subscriber " << i;
    ASSERT_EQ(api::peek_frame_type(frame), api::FrameType::kWelcome);
    ASSERT_TRUE(sub.conn->write_all(api::encode_subscribe({1, sub.filter, std::nullopt})));
    frame = next_frame(*sub.conn, sub.frames);
    ASSERT_FALSE(frame.empty()) << "subscriber " << i;
    ASSERT_EQ(api::peek_frame_type(frame), api::FrameType::kSubscribed);
  }

  // The lazy peers: full handshake and subscription, then total silence.
  std::vector<std::unique_ptr<Connection>> lazy;
  for (std::size_t i = 0; i < kLazy; ++i) {
    auto conn = inner->connect();
    FrameBuffer frames;
    ASSERT_TRUE(conn->write_all(api::encode_hello({api::kProtocolVersion, ""})));
    ASSERT_EQ(api::peek_frame_type(next_frame(*conn, frames)), api::FrameType::kWelcome);
    ASSERT_TRUE(conn->write_all(api::encode_subscribe({1, {}, std::nullopt})));
    ASSERT_EQ(api::peek_frame_type(next_frame(*conn, frames)),
              api::FrameType::kSubscribed);
    lazy.push_back(std::move(conn));
  }
  ASSERT_EQ(service.subscription_count(), kSubs + kLazy);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> survivor_events{0};
  std::thread drainer([&] {
    auto poller = Poller::create(default_poller_backend());
    for (std::size_t i = 0; i < kSubs; ++i) {
      poller->set(subs[i].conn->poll_info().read_fd, i, /*want_read=*/true,
                  /*want_write=*/false);
    }
    std::vector<PollerEvent> ready;
    std::vector<std::uint8_t> chunk(16384);
    while (!stop.load()) {
      (void)poller->wait(ready, 50);
      for (const auto& event : ready) {
        auto& sub = subs[event.token];
        if (sub.eof) continue;
        for (;;) {
          std::size_t n = 0;
          const auto status = sub.conn->try_read(chunk, n);
          if (status == IoStatus::kOk) {
            sub.frames.append(std::span(chunk.data(), n));
            continue;
          }
          if (status == IoStatus::kEof) {
            sub.eof = true;
            poller->remove(sub.conn->poll_info().read_fd);
          }
          break;
        }
        for (;;) {
          const auto frame = sub.frames.extract();
          if (frame.empty()) break;
          if (api::peek_frame_type(frame) != api::FrameType::kEvent) continue;
          sub.deltas.push_back(api::decode_event(frame).delta);
          if (!is_faulty(event.token)) survivor_events.fetch_add(1);
        }
      }
    }
  });

  // Paced publishes (the drainer shares one core with everything else);
  // lazy peers still back up within a few epochs because they never read.
  std::vector<api::EpochDelta> published;
  for (stream::Epoch e = 0; e < kEpochs; ++e) {
    if (e > 0) (void)service.advance_epoch();
    core::Dataset batch;
    for (bgp::Asn a = 1; a <= kAsnSpace; ++a) {
      batch.push_back(tuple(a, 1000 + a, (e + a) % 2 == 0));
    }
    (void)service.ingest(std::move(batch));
    published.push_back(service.publish());
    std::this_thread::sleep_for(5ms);
  }

  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kSubs; ++i) {
    if (is_faulty(i)) continue;
    for (const auto& delta : published) {
      if (!subs[i].filter.apply(delta).empty()) ++expected;
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (survivor_events.load() < expected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  stop.store(true);
  drainer.join();
  ASSERT_EQ(survivor_events.load(), expected)
      << "a healthy subscriber lost events to someone else's fault";

  // Survivors: exactly the filtered published sequence, gap-free.
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < kSubs; ++i) {
    if (is_faulty(i)) continue;
    ++survivors;
    std::size_t at = 0;
    for (const auto& delta : published) {
      const auto want = subs[i].filter.apply(delta);
      if (want.empty()) continue;
      ASSERT_LT(at, subs[i].deltas.size()) << "subscriber " << i << " missing epochs";
      EXPECT_EQ(subs[i].deltas[at].epoch, delta.epoch) << "subscriber " << i;
      EXPECT_EQ(subs[i].deltas[at].changes, want) << "subscriber " << i;
      ++at;
    }
    EXPECT_EQ(at, subs[i].deltas.size()) << "subscriber " << i << " got extra events";
    EXPECT_FALSE(subs[i].eof) << "healthy subscriber " << i << " was disconnected";
  }

  // The lazy peers were shed by the byte bound, the cut peers died on their
  // faults, and neither leaked a slot or a subscription.
  EXPECT_EQ(counted(obs::metrics().net_slow_disconnects), kLazy);
  EXPECT_TRUE(eventually([&] { return service.subscription_count() == survivors; }))
      << "a dead peer stranded its subscription";
  EXPECT_TRUE(eventually([&] { return server.connection_count() == survivors; }))
      << "a dead peer leaked its connection slot";

  server.stop();
}

}  // namespace
}  // namespace bgpcu::net
