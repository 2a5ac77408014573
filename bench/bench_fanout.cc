// Subscriber fan-out throughput: delivered events/sec as the subscriber
// count scales (128 / 1k / 8k loopback subscribers), measured from the
// first publish to the last byte delivered, with every subscriber drained
// concurrently by one poller-driven reader. Every tier re-checks that each
// subscriber's stream is bit-identical to the published sequence — the
// delivered-equals-published gate; any loss, duplication, or reorder is a
// correctness failure, exit 1. --smoke scales down for CI (one 128-subscriber
// tier). [--out FILE] records one JSON line (default BENCH_fanout.json).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "bgp/community.h"
#include "common.h"
#include "core/types.h"
#include "net/framer.h"
#include "net/loopback.h"
#include "net/poller.h"
#include "net/server.h"

namespace {

using namespace bgpcu;
using Clock = std::chrono::steady_clock;

constexpr bgp::Asn kAsnSpace = 16;  ///< Changes per epoch: small events, many wakeups.

core::PathCommTuple tuple(bgp::Asn peer, bgp::Asn origin, bool tags) {
  core::PathCommTuple t;
  t.path = {peer, origin};
  if (tags) {
    t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(peer), 1));
  }
  return t;
}

/// Raises RLIMIT_NOFILE toward `want` fds if the hard limit allows, and
/// returns the resulting soft limit (loopback fan-out costs ~3 eventfds per
/// subscriber, so the 8k tier needs more than common defaults).
std::size_t ensure_fd_budget(std::size_t want) {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur < want) {
    rlimit next = rl;
    next.rlim_cur = rl.rlim_max == RLIM_INFINITY
                        ? static_cast<rlim_t>(want)
                        : std::min<rlim_t>(static_cast<rlim_t>(want), rl.rlim_max);
    if (setrlimit(RLIMIT_NOFILE, &next) == 0) rl = next;
  }
  return static_cast<std::size_t>(rl.rlim_cur);
}

struct Sub {
  std::unique_ptr<net::Connection> conn;
  net::FrameBuffer frames;
  std::vector<api::EpochDelta> deltas;
  bool eof = false;
};

struct FanoutResult {
  std::size_t subscribers = 0;
  double events_per_sec = 0;
  double wall_ms = 0;
  std::uint64_t delivered = 0;
  std::uint64_t expected = 0;
  bool exact = false;  ///< delivered-equals-published, per subscriber.
};

std::vector<std::uint8_t> next_frame(net::Connection& conn, net::FrameBuffer& frames) {
  std::vector<std::uint8_t> chunk(4096);
  for (;;) {
    auto frame = frames.extract();
    if (!frame.empty()) return frame;
    const auto n = conn.read_some(chunk);
    if (n == 0) return {};
    frames.append(std::span(chunk.data(), n));
  }
}

/// One tier: `subscribers` match-all subscriptions, `epochs` published
/// epochs, timed from first publish to last delivery.
FanoutResult bench_fanout(std::size_t subscribers, stream::Epoch epochs) {
  // window_epochs = 1: the driver flips tagging parity every epoch; a longer
  // window would union consecutive epochs and publish no class changes.
  api::Service service({.stream = {.shards = 2, .window_epochs = 1}});
  auto listener = std::make_shared<net::LoopbackListener>();
  net::ServerConfig config;
  config.max_connections = subscribers + 8;
  net::Server server(service, listener, config);
  server.start();

  std::vector<Sub> subs(subscribers);
  for (auto& sub : subs) {
    sub.conn = listener->connect();
    if (!sub.conn->write_all(api::encode_hello({api::kProtocolVersion, ""}))) return {};
    if (next_frame(*sub.conn, sub.frames).empty()) return {};
    if (!sub.conn->write_all(api::encode_subscribe({1, {}, std::nullopt}))) return {};
    if (next_frame(*sub.conn, sub.frames).empty()) return {};
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> received{0};
  std::thread drainer([&] {
    auto poller = net::Poller::create(net::default_poller_backend());
    for (std::size_t i = 0; i < subscribers; ++i) {
      poller->set(subs[i].conn->poll_info().read_fd, i, true, false);
    }
    std::vector<net::PollerEvent> ready;
    std::vector<std::uint8_t> chunk(1 << 16);
    while (!stop.load()) {
      (void)poller->wait(ready, 20);
      for (const auto& event : ready) {
        auto& sub = subs[event.token];
        if (sub.eof) continue;
        for (;;) {
          std::size_t n = 0;
          const auto status = sub.conn->try_read(chunk, n);
          if (status == net::IoStatus::kOk) {
            sub.frames.append(std::span(chunk.data(), n));
            continue;
          }
          if (status == net::IoStatus::kEof) {
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
          received.fetch_add(1);
        }
      }
    }
  });

  // Every epoch flips every AS's tagging, so each publish reaches every
  // subscriber (match-all filters: one encoded buffer, N queues).
  std::vector<api::EpochDelta> published;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(subscribers) * epochs;
  const auto t0 = Clock::now();
  for (stream::Epoch e = 0; e < epochs; ++e) {
    if (e > 0) (void)service.advance_epoch();
    core::Dataset batch;
    for (bgp::Asn a = 1; a <= kAsnSpace; ++a) {
      batch.push_back(tuple(a, 1000 + a, (e + a) % 2 == 0));
    }
    (void)service.ingest(std::move(batch));
    published.push_back(service.publish());
  }
  const auto deadline = Clock::now() + std::chrono::seconds(300);
  while (received.load() < expected && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto t1 = Clock::now();
  stop.store(true);
  drainer.join();
  server.stop();

  FanoutResult out;
  out.subscribers = subscribers;
  out.delivered = received.load();
  out.expected = expected;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.events_per_sec =
      out.wall_ms > 0 ? static_cast<double>(out.delivered) / (out.wall_ms / 1000.0) : 0;
  out.exact = out.delivered == expected;
  for (std::size_t i = 0; out.exact && i < subscribers; ++i) {
    std::size_t at = 0;
    for (const auto& delta : published) {
      if (delta.changes.empty()) continue;
      if (at >= subs[i].deltas.size() || subs[i].deltas[at].epoch != delta.epoch ||
          !(subs[i].deltas[at].changes == delta.changes)) {
        out.exact = false;
        break;
      }
      ++at;
    }
    if (at != subs[i].deltas.size()) out.exact = false;
  }
  return out;
}

int run(bool smoke, const std::string& out_path) {
  bench::print_banner(
      "Subscriber fan-out — delivered events/sec vs subscriber count",
      "engineering (net subsystem)");

  std::vector<std::size_t> tiers =
      smoke ? std::vector<std::size_t>{128} : std::vector<std::size_t>{128, 1024, 8192};
  const stream::Epoch epochs = smoke ? 20 : 60;

  // ~3 eventfds per loopback subscriber plus headroom for everything else.
  const std::size_t fd_limit = ensure_fd_budget(4 * tiers.back() + 512);
  const std::size_t fd_fit = fd_limit > 512 ? (fd_limit - 512) / 4 : 64;
  for (auto& tier : tiers) {
    if (tier > fd_fit) {
      std::printf("fd limit %zu clamps the %zu-subscriber tier to %zu\n",
                  fd_limit, tier, fd_fit);
      tier = fd_fit;
    }
  }

  std::vector<FanoutResult> results;
  for (const auto tier : tiers) {
    const auto r = bench_fanout(tier, epochs);
    std::printf("event loop, %6zu subscribers: %10.0f events/s over %zu epochs "
                "(%.0f ms wall, %llu/%llu delivered)%s\n",
                r.subscribers, r.events_per_sec, static_cast<std::size_t>(epochs),
                r.wall_ms, static_cast<unsigned long long>(r.delivered),
                static_cast<unsigned long long>(r.expected),
                smoke ? " (smoke scale)" : "");
    if (!r.exact) {
      std::cerr << "FAIL: delivered stream diverges from the published sequence at "
                << r.subscribers << " subscribers\n";
      return 1;
    }
    results.push_back(r);
  }
  std::cout << "delivered-equals-published: identical on every tier\n";

  std::string tiers_json;
  for (const auto& r : results) {
    char item[192];
    std::snprintf(item, sizeof item,
                  "%s{\"subscribers\":%zu,\"events_per_sec\":%.0f,\"wall_ms\":%.1f}",
                  tiers_json.empty() ? "" : ",", r.subscribers, r.events_per_sec,
                  r.wall_ms);
    tiers_json += item;
  }
  char json[512];
  std::snprintf(json, sizeof json,
                "{\"bench\":\"fanout\",\"smoke\":%s,\"epochs\":%zu,"
                "\"tiers\":[%s],\"delivered_equals_published\":true}\n",
                smoke ? "true" : "false", static_cast<std::size_t>(epochs),
                tiers_json.c_str());
  std::ofstream out(out_path, std::ios::trunc);
  out << json;
  out.flush();
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "recorded " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_fanout.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  return run(smoke, out_path);
}
