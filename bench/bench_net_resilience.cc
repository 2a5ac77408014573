// Networking resilience costs: (1) reconnect-to-first-delta latency — the
// time from a killed link to the resumed subscription delivering the next
// epoch, the recovery window a downstream consumer actually experiences —
// and (2) shed throughput — how fast an overloaded server turns away
// over-budget requests with kBusy while staying responsive. Both run over
// the in-process loopback transport so the numbers isolate protocol and
// client/server machinery from kernel TCP. Every run re-checks that the
// resumed delta stream is bit-identical to the published sequence; any
// divergence is a correctness failure, exit 1. --smoke scales down for CI;
// [--out FILE] records one JSON line (default BENCH_net.json).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "bgp/community.h"
#include "common.h"
#include "core/types.h"
#include "net/framer.h"
#include "net/loopback.h"
#include "net/resilient.h"
#include "net/server.h"

namespace {

using namespace bgpcu;
using Clock = std::chrono::steady_clock;

core::PathCommTuple flip_tuple(bgp::Asn peer, bgp::Asn origin) {
  core::PathCommTuple t;
  t.path = {peer, origin};
  t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(peer), 1));
  return t;
}

/// Advances the service one epoch and publishes a small, deterministic delta
/// (one newly tagged AS per epoch).
api::EpochDelta publish_next(api::Service& service, stream::Epoch& published) {
  if (published > 0) (void)service.advance_epoch();
  (void)service.ingest({flip_tuple(100 + static_cast<bgp::Asn>(published), 20)});
  ++published;
  return service.publish();
}

struct ReconnectResult {
  double p50_ms = 0;
  double max_ms = 0;
  std::uint64_t reconnects = 0;
  bool diverged = false;
};

/// Kills the link `rounds` times; each round publishes one more epoch while
/// the link is down and times next_event() from the kill to the resumed
/// delta. The received sequence is compared against the published one.
ReconnectResult bench_reconnect(std::size_t rounds) {
  api::Service service({.stream = {.window_epochs = 1}});
  auto listener = std::make_shared<net::LoopbackListener>();
  net::Server server(service, listener, {});
  server.start();

  net::Connection* live = nullptr;
  net::ResilientConfig config;
  config.sleep_fn = [](std::chrono::milliseconds) {};  // backoff out of the timing
  net::ResilientClient client(
      [&] {
        auto conn = listener->connect();
        live = conn.get();
        return conn;
      },
      std::move(config));

  stream::Epoch published = 0;
  std::vector<api::EpochDelta> reference;
  reference.push_back(publish_next(service, published));
  client.subscribe({}, /*replay_from=*/0);

  std::vector<api::EpochDelta> got;
  std::vector<double> latencies;
  const auto consume_delta = [&]() -> bool {
    for (;;) {
      const auto event = client.next_event();
      if (!event) return false;
      if (event->kind == net::ResilientClient::Event::Kind::kDelta) {
        got.push_back(event->delta);
        return true;
      }
    }
  };
  if (!consume_delta()) return {0, 0, 0, true};

  for (std::size_t round = 0; round < rounds; ++round) {
    live->close();
    reference.push_back(publish_next(service, published));
    const auto t0 = Clock::now();
    if (!consume_delta()) return {0, 0, 0, true};
    latencies.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  server.stop();

  ReconnectResult out;
  out.reconnects = client.stats().reconnects;
  out.diverged = got.size() != reference.size();
  for (std::size_t i = 0; !out.diverged && i < got.size(); ++i) {
    out.diverged = got[i].epoch != reference[i].epoch ||
                   !(got[i].changes == reference[i].changes);
  }
  std::sort(latencies.begin(), latencies.end());
  out.p50_ms = latencies.empty() ? 0 : latencies[latencies.size() / 2];
  out.max_ms = latencies.empty() ? 0 : latencies.back();
  return out;
}

struct ShedResult {
  double sheds_per_sec = 0;
  std::uint64_t sheds = 0;
  std::uint64_t answered = 0;
  bool healthy = false;  ///< Server still answered after the flood.
};

/// Floods one connection with `requests` pipelined stats queries against a
/// token bucket that admits almost none of them, and times how fast the
/// server turns the excess away as kBusy.
ShedResult bench_shed(std::size_t requests) {
  api::Service service({.stream = {.window_epochs = 1}});
  auto listener = std::make_shared<net::LoopbackListener>();
  net::ServerConfig config;
  config.max_requests_per_sec = 100;  // flood outpaces this by orders of magnitude
  config.request_burst = 1;
  config.busy_retry_after_ms = 5;
  net::Server server(service, listener, config);
  server.start();

  auto conn = listener->connect();
  net::FrameBuffer frames;
  std::vector<std::uint8_t> chunk(1 << 16);
  const auto next_frame = [&]() -> std::vector<std::uint8_t> {
    for (;;) {
      auto frame = frames.extract();
      if (!frame.empty()) return frame;
      const auto n = conn->read_some(chunk);
      if (n == 0) return {};
      frames.append(std::span(chunk.data(), n));
    }
  };

  (void)conn->write_all(api::encode_hello({api::kProtocolVersion, ""}));
  (void)api::decode_welcome(next_frame());

  // Reader thread drains responses so the flood never deadlocks on a full
  // write queue in either direction.
  std::uint64_t sheds = 0, answered = 0;
  const api::QueryRequest stats_query{.kind = api::QueryKind::kStats};
  const auto t0 = Clock::now();
  std::size_t outstanding = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (!conn->write_all(api::encode_request({i + 1, stats_query}))) break;
    ++outstanding;
    // Drain in batches to bound the in-flight window without lockstep RTTs.
    while (outstanding >= 256) {
      const auto frame = next_frame();
      if (frame.empty()) { outstanding = 0; break; }
      --outstanding;
      if (api::peek_frame_type(frame) == api::FrameType::kBusy) ++sheds; else ++answered;
    }
  }
  while (outstanding > 0) {
    const auto frame = next_frame();
    if (frame.empty()) break;
    --outstanding;
    if (api::peek_frame_type(frame) == api::FrameType::kBusy) ++sheds; else ++answered;
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

  // Liveness gate: a ping still comes back after the flood.
  bool healthy = false;
  if (conn->write_all(api::encode_ping({0xBEEF}))) {
    for (;;) {
      const auto frame = next_frame();
      if (frame.empty()) break;
      if (api::peek_frame_type(frame) == api::FrameType::kPong) { healthy = true; break; }
    }
  }
  conn->close();
  server.stop();

  ShedResult out;
  out.sheds = sheds;
  out.answered = answered;
  out.sheds_per_sec = elapsed > 0 ? static_cast<double>(sheds) / elapsed : 0;
  out.healthy = healthy;
  return out;
}

int run(bool smoke, const std::string& out_path) {
  bench::print_banner("Networking resilience — reconnect recovery latency, "
                      "overload shed throughput",
                      "engineering (net subsystem)");

  const std::size_t rounds = smoke ? 20 : 100;
  const std::size_t flood = smoke ? 5000 : 50000;

  const auto reconnect = bench_reconnect(rounds);
  std::printf("reconnect-to-first-delta over %zu link kills: p50 %.3f ms, max %.3f ms "
              "(%llu reconnects)%s\n",
              rounds, reconnect.p50_ms, reconnect.max_ms,
              static_cast<unsigned long long>(reconnect.reconnects),
              smoke ? " (smoke scale)" : "");
  if (reconnect.diverged) {
    std::cerr << "FAIL: resumed delta stream diverges from the published sequence\n";
    return 1;
  }
  std::cout << "resume-vs-published: identical\n";

  const auto shed = bench_shed(flood);
  std::printf("shed throughput over %zu flooded requests: %llu shed, %llu answered, "
              "%.0f sheds/s\n",
              flood, static_cast<unsigned long long>(shed.sheds),
              static_cast<unsigned long long>(shed.answered), shed.sheds_per_sec);
  if (!shed.healthy) {
    std::cerr << "FAIL: server stopped answering after the flood\n";
    return 1;
  }
  if (shed.sheds == 0) {
    std::cerr << "FAIL: admission control shed nothing under flood\n";
    return 1;
  }
  std::cout << "post-flood liveness: ping answered\n";

  char json[512];
  std::snprintf(json, sizeof json,
                "{\"bench\":\"net_resilience\",\"smoke\":%s,"
                "\"reconnects\":%llu,\"reconnect_p50_ms\":%.3f,"
                "\"reconnect_max_ms\":%.3f,\"flood_requests\":%zu,"
                "\"sheds\":%llu,\"answered\":%llu,\"sheds_per_sec\":%.0f,"
                "\"sequence_divergence\":false}\n",
                smoke ? "true" : "false",
                static_cast<unsigned long long>(reconnect.reconnects),
                reconnect.p50_ms, reconnect.max_ms, flood,
                static_cast<unsigned long long>(shed.sheds),
                static_cast<unsigned long long>(shed.answered), shed.sheds_per_sec);
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
  std::string out_path = "BENCH_net.json";
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
