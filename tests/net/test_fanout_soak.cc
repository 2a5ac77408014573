// Fan-out soak (ctest label: soak — excluded by the 'fast' preset): one
// thousand concurrent loopback subscribers with mixed filters (match-all,
// ASN watch lists, transition specs) drained by a poller-driven reader
// while the service publishes churn. Every subscriber must receive exactly
// the sequence its filter admits — same epochs, same changes, same order —
// and each per-ASN stream must chain gap-free (every change's `before`
// equals the previous change's `after`). This is the serialize-once
// broadcast path under real concurrency: all match-all subscribers share
// one encoded buffer per epoch, so a torn or cross-wired buffer would
// surface here as a mismatched or misordered delta.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "counter_baseline.h"
#include "net/framer.h"
#include "net/loopback.h"
#include "net/poller.h"
#include "net/server.h"

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

/// Reads whole frames off a raw connection, blocking. Empty on EOF.
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

/// One raw subscriber: its connection, reassembly buffer, filter, and the
/// event deltas received so far. `deltas` is written by the drainer thread
/// only and read by the main thread only after the drainer joined.
struct Sub {
  std::unique_ptr<Connection> conn;
  FrameBuffer frames;
  api::SubscriptionFilter filter;
  std::vector<api::EpochDelta> deltas;
  bool eof = false;
};

TEST(FanoutSoak, ThousandMixedFilterSubscribersSeeExactGapFreeStreams) {
  constexpr std::size_t kSubs = 1000;
  constexpr stream::Epoch kEpochs = 20;
  constexpr bgp::Asn kAsnSpace = 96;

  // window_epochs = 1: the driver flips each AS's tagging parity every
  // epoch, so a longer window would union consecutive epochs and keep every
  // AS permanently tagged — no class changes, nothing to fan out.
  api::Service service({.stream = {.shards = 4, .window_epochs = 1}});
  auto listener = std::make_shared<LoopbackListener>();
  Server server(service, listener,
                {.max_connections = kSubs + 8, .io_threads = 2, .worker_threads = 2});
  const CounterBaseline counted;
  server.start();

  // Handshake + subscribe each connection up front (serially, blocking) so
  // every subscriber observes every published epoch.
  std::vector<Sub> subs(kSubs);
  for (std::size_t i = 0; i < kSubs; ++i) {
    auto& sub = subs[i];
    switch (i % 3) {
      case 0:
        break;  // match-all: the shared-broadcast-buffer population
      case 1:
        // Small watch lists, deterministically spread over the ASN space;
        // many repeat, exercising both shared and distinct filter groups.
        for (std::size_t k = 0; k < 3; ++k) {
          sub.filter.watch.push_back(
              static_cast<bgp::Asn>(1 + (i * 7 + k * 31) % kAsnSpace));
        }
        break;
      default:
        sub.filter = api::SubscriptionFilter::transition("*->tn");
        break;
    }
    sub.conn = listener->connect();
    ASSERT_TRUE(sub.conn->write_all(api::encode_hello({api::kProtocolVersion, ""})));
    auto frame = next_frame(*sub.conn, sub.frames);
    ASSERT_FALSE(frame.empty()) << "subscriber " << i << " lost its welcome";
    ASSERT_EQ(api::peek_frame_type(frame), api::FrameType::kWelcome);
    ASSERT_TRUE(sub.conn->write_all(api::encode_subscribe({1, sub.filter, std::nullopt})));
    frame = next_frame(*sub.conn, sub.frames);
    ASSERT_FALSE(frame.empty()) << "subscriber " << i << " lost its subscribe ack";
    ASSERT_EQ(api::peek_frame_type(frame), api::FrameType::kSubscribed);
  }
  ASSERT_EQ(service.subscription_count(), kSubs);

  // Drainer: one poller multiplexing all 1000 client-side connections, so
  // every queue keeps moving while the driver publishes.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> received{0};
  std::thread drainer([&] {
    Poller poller;
    for (std::size_t i = 0; i < kSubs; ++i) {
      poller.set(subs[i].conn->poll_info().read_fd, i, /*want_read=*/true,
                  /*want_write=*/false);
    }
    std::vector<PollerEvent> ready;
    std::vector<std::uint8_t> chunk(16384);
    while (!stop.load()) {
      (void)poller.wait(ready, 50);
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
            poller.remove(sub.conn->poll_info().read_fd);
          }
          break;
        }
        for (;;) {
          const auto frame = sub.frames.extract();
          if (frame.empty()) break;
          if (api::peek_frame_type(frame) != api::FrameType::kEvent) continue;
          sub.deltas.push_back(api::decode_event(frame).delta);
          received.fetch_add(1);
        }
      }
    }
  });

  // Driver: every epoch flips each AS's tagging parity, so every publish
  // carries changes for most of the space.
  std::vector<api::EpochDelta> published;
  for (stream::Epoch e = 0; e < kEpochs; ++e) {
    if (e > 0) (void)service.advance_epoch();
    core::Dataset batch;
    for (bgp::Asn a = 1; a <= kAsnSpace; ++a) {
      batch.push_back(tuple(a, 1000 + a, (e + a) % 2 == 0));
    }
    (void)service.ingest(std::move(batch));
    published.push_back(service.publish());
  }

  // Expected deliveries are fully determined by the published deltas.
  std::uint64_t expected = 0;
  for (const auto& sub : subs) {
    for (const auto& delta : published) {
      if (!sub.filter.apply(delta).empty()) ++expected;
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (received.load() < expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  drainer.join();
  // Asserted only after the drainer joined: an ASSERT with a live thread
  // would terminate() instead of reporting the failure.
  ASSERT_GT(expected, kSubs * (kEpochs / 2)) << "churn generated too few events";
  ASSERT_EQ(received.load(), expected) << "fan-out lost or duplicated events";

  // Exactness: each subscriber's stream is precisely the filtered published
  // sequence — no gaps, no reorders, no cross-wired buffers.
  for (std::size_t i = 0; i < kSubs; ++i) {
    const auto& sub = subs[i];
    std::size_t at = 0;
    for (const auto& delta : published) {
      const auto want = sub.filter.apply(delta);
      if (want.empty()) continue;
      ASSERT_LT(at, sub.deltas.size()) << "subscriber " << i << " is missing epochs";
      EXPECT_EQ(sub.deltas[at].epoch, delta.epoch) << "subscriber " << i;
      EXPECT_EQ(sub.deltas[at].changes, want) << "subscriber " << i;
      ++at;
    }
    EXPECT_EQ(at, sub.deltas.size()) << "subscriber " << i << " got extra events";
  }

  // Gap-free per-ASN chaining on the match-all population: each change must
  // continue exactly where the previous one for that AS left off.
  for (std::size_t i = 0; i < kSubs; i += 3) {
    std::map<bgp::Asn, core::UsageClass> last;
    for (const auto& delta : subs[i].deltas) {
      for (const auto& change : delta.changes) {
        const auto it = last.find(change.asn);
        if (it != last.end()) {
          ASSERT_EQ(change.before, it->second)
              << "subscriber " << i << " AS " << change.asn << " stream has a gap";
        }
        last[change.asn] = change.after;
      }
    }
  }

  EXPECT_EQ(counted(obs::metrics().net_slow_disconnects), 0u)
      << "a continuously drained subscriber must never be shed";
  server.stop();
}

}  // namespace
}  // namespace bgpcu::net
