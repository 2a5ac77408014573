// Unit tests for the deterministic fault-injection layer (net/fault.h):
// cut/stall/short-write semantics over real loopback pipes, through both the
// blocking and the nonblocking surface, byte-offset accounting, seeded-plan
// reproducibility, and the per-accept planner.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/loopback.h"

namespace bgpcu::net {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t fill = 0xAB) {
  return std::vector<std::uint8_t>(n, fill);
}

/// Drains everything readable from `conn` (until EOF) and returns it.
std::vector<std::uint8_t> drain(Connection& conn) {
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> chunk(256);
  for (;;) {
    const auto n = conn.read_some(chunk);
    if (n == 0) return out;
    out.insert(out.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(n));
  }
}

TEST(FaultPlan, CutWriteDeliversExactlyTheBudgetThenSevers) {
  auto [client, server] = make_loopback_pair();
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::cut_write_at(7));

  // 10 bytes against a 7-byte budget: the write reports peer-gone...
  EXPECT_FALSE(faulty->write_all(bytes(10)));
  auto* wrapped = dynamic_cast<FaultyConnection*>(faulty.get());
  ASSERT_NE(wrapped, nullptr);
  EXPECT_TRUE(wrapped->severed());
  EXPECT_EQ(wrapped->bytes_written(), 7u);

  // ...and the peer sees exactly the 7 bytes that made it, then EOF — a
  // partial frame, exactly what a dropped TCP session leaves behind.
  EXPECT_EQ(drain(*server).size(), 7u);

  // Every later operation on the severed link reports peer-gone too.
  EXPECT_FALSE(faulty->write_all(bytes(1)));
  std::vector<std::uint8_t> buf(4);
  EXPECT_EQ(faulty->read_some(buf), 0u);
}

TEST(FaultPlan, CutAtZeroSeversBeforeAnyByte) {
  auto [client, server] = make_loopback_pair();
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::cut_write_at(0));
  EXPECT_FALSE(faulty->write_all(bytes(1)));
  EXPECT_TRUE(drain(*server).empty());
}

TEST(FaultPlan, CutReadStopsDeliveryAtTheBoundary) {
  auto [client, server] = make_loopback_pair();
  ASSERT_TRUE(server->write_all(bytes(32)));
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::cut_read_at(5));

  std::vector<std::uint8_t> buf(64);
  std::size_t total = 0;
  for (;;) {
    const auto n = faulty->read_some(buf);
    if (n == 0) break;
    total += n;
  }
  EXPECT_EQ(total, 5u) << "reads past the cut budget must see EOF";
  auto* wrapped = dynamic_cast<FaultyConnection*>(faulty.get());
  ASSERT_NE(wrapped, nullptr);
  EXPECT_TRUE(wrapped->severed());
}

TEST(FaultPlan, CutSeversBothDirectionsLikeADroppedSession) {
  auto [client, server] = make_loopback_pair();
  ASSERT_TRUE(server->write_all(bytes(16)));
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::cut_write_at(4));
  EXPECT_FALSE(faulty->write_all(bytes(8)));

  // The read side is gone too, even though 16 bytes sat in the pipe.
  std::vector<std::uint8_t> buf(64);
  EXPECT_EQ(faulty->read_some(buf), 0u);
}

TEST(FaultPlan, ShortWritesChunkTheStreamWithoutLosingBytes) {
  auto [client, server] = make_loopback_pair();
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::short_writes(3));
  ASSERT_TRUE(faulty->write_all(bytes(10, 0x5A)));
  faulty->shutdown_write();
  const auto got = drain(*server);
  EXPECT_EQ(got, bytes(10, 0x5A)) << "chunking must be invisible to the byte stream";
}

TEST(FaultPlan, StallDelaysOnceAtTheThreshold) {
  auto [client, server] = make_loopback_pair();
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::stall_write_at(4, 50ms));

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(faulty->write_all(bytes(8)));
  const auto first = std::chrono::steady_clock::now() - start;
  EXPECT_GE(first, 45ms) << "the write crossing byte 4 must pause";

  // The stall fires exactly once; later writes run at full speed.
  const auto again = std::chrono::steady_clock::now();
  ASSERT_TRUE(faulty->write_all(bytes(64)));
  EXPECT_LT(std::chrono::steady_clock::now() - again, 45ms);
  faulty->shutdown_write();
  EXPECT_EQ(drain(*server).size(), 72u);
}

TEST(FaultPlan, RandomCutIsReproducibleFromItsSeed) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto a = FaultPlan::random_cut(seed, 10, 500);
    const auto b = FaultPlan::random_cut(seed, 10, 500);
    ASSERT_EQ(a.faults.size(), b.faults.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
      EXPECT_EQ(a.faults[i].kind, b.faults[i].kind) << "seed " << seed;
      EXPECT_EQ(a.faults[i].dir, b.faults[i].dir) << "seed " << seed;
      EXPECT_EQ(a.faults[i].at_bytes, b.faults[i].at_bytes) << "seed " << seed;
      EXPECT_EQ(a.faults[i].delay, b.faults[i].delay) << "seed " << seed;
    }
    // The cut offset honors the requested window.
    for (const auto& fault : a.faults) {
      if (fault.kind == Fault::Kind::kCut) {
        EXPECT_GE(fault.at_bytes, 10u);
        EXPECT_LT(fault.at_bytes, 500u);
      }
    }
  }
  // Different seeds must not all collapse onto one plan.
  const auto one = FaultPlan::random_cut(1, 10, 500);
  bool distinct = false;
  for (std::uint64_t seed = 2; seed <= 16 && !distinct; ++seed) {
    const auto other = FaultPlan::random_cut(seed, 10, 500);
    for (std::size_t i = 0; i < one.faults.size() && i < other.faults.size(); ++i) {
      distinct = distinct || one.faults[i].at_bytes != other.faults[i].at_bytes ||
                 one.faults[i].dir != other.faults[i].dir;
    }
  }
  EXPECT_TRUE(distinct);
}

TEST(FaultPlan, EmptyPlanPassesBytesThroughUntouched) {
  auto [client, server] = make_loopback_pair();
  auto faulty = wrap_with_faults(std::move(client), FaultPlan{});
  ASSERT_TRUE(faulty->write_all(bytes(100, 0x11)));
  faulty->shutdown_write();
  EXPECT_EQ(drain(*server), bytes(100, 0x11));
}

// ------------------------------------------- the nonblocking surface --
// The event-driven server drives wrapped connections through poll_info /
// try_read / try_write; the same plan must apply there.

TEST(FaultPlan, CutWriteThroughTryWriteAcceptsExactlyTheBudget) {
  auto [client, server] = make_loopback_pair();
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::cut_write_at(7));
  auto* wrapped = dynamic_cast<FaultyConnection*>(faulty.get());
  ASSERT_NE(wrapped, nullptr);

  const auto data = bytes(10);
  std::size_t n = 0;
  EXPECT_EQ(faulty->try_write(data, n), IoStatus::kOk);
  EXPECT_EQ(n, 7u) << "the transfer is capped at the cut boundary";
  EXPECT_TRUE(wrapped->severed());
  EXPECT_EQ(faulty->try_write(std::span(data).subspan(n), n), IoStatus::kEof);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(drain(*server).size(), 7u);
}

TEST(FaultPlan, CutReadThroughTryReadDeliversExactlyTheBudget) {
  auto [client, server] = make_loopback_pair();
  ASSERT_TRUE(server->write_all(bytes(32)));
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::cut_read_at(5));
  auto* wrapped = dynamic_cast<FaultyConnection*>(faulty.get());
  ASSERT_NE(wrapped, nullptr);

  std::vector<std::uint8_t> buf(64);
  std::size_t n = 0;
  EXPECT_EQ(faulty->try_read(buf, n), IoStatus::kOk);
  EXPECT_EQ(n, 5u);
  EXPECT_TRUE(wrapped->severed());
  EXPECT_EQ(faulty->try_read(buf, n), IoStatus::kEof);
  EXPECT_EQ(n, 0u);
}

TEST(FaultPlan, ShortWritesCapEveryTryWrite) {
  auto [client, server] = make_loopback_pair();
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::short_writes(3));
  const auto data = bytes(20, 0x5A);
  std::size_t offset = 0;
  while (offset < data.size()) {
    std::size_t n = 0;
    ASSERT_EQ(faulty->try_write(std::span(data).subspan(offset), n), IoStatus::kOk);
    ASSERT_GE(n, 1u);
    ASSERT_LE(n, 3u);
    offset += n;
  }
  faulty->shutdown_write();
  EXPECT_EQ(drain(*server), data);
}

TEST(FaultPlan, StallThroughTryWriteWouldBlockUntilItsDelayPasses) {
  auto [client, server] = make_loopback_pair();
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::stall_write_at(4, 50ms));
  const auto data = bytes(8);
  const auto start = std::chrono::steady_clock::now();
  std::size_t n = 0;
  // Never sleeps: the call returns at once and says "not now".
  EXPECT_EQ(faulty->try_write(data, n), IoStatus::kWouldBlock);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 45ms);
  IoStatus status = IoStatus::kWouldBlock;
  while (status == IoStatus::kWouldBlock) {
    std::this_thread::sleep_for(5ms);
    status = faulty->try_write(data, n);
  }
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 45ms);
  EXPECT_EQ(n, 8u);
  // The stall fires once: the next write goes straight through.
  EXPECT_EQ(faulty->try_write(data, n), IoStatus::kOk);
}

TEST(FaultPlan, PollInfoIsTheInnerConnections) {
  auto [client, server] = make_loopback_pair();
  const auto inner = client->poll_info();
  ASSERT_TRUE(inner.pollable());
  auto faulty = wrap_with_faults(std::move(client), FaultPlan::cut_write_at(7));
  EXPECT_EQ(faulty->poll_info().read_fd, inner.read_fd);
  EXPECT_EQ(faulty->poll_info().write_fd, inner.write_fd);
}

TEST(FaultyListener, PlannerAssignsAPlanPerAcceptIndex) {
  auto inner = std::make_shared<LoopbackListener>();
  FaultyListener listener(inner, [](std::size_t index) {
    // Connection 0 dies after 4 bytes; connection 1 is healthy.
    return index == 0 ? FaultPlan::cut_write_at(4) : FaultPlan{};
  });

  auto client0 = inner->connect();
  auto server0 = listener.accept();  // wrapped with the cut plan
  ASSERT_NE(server0, nullptr);
  EXPECT_FALSE(server0->write_all(bytes(16)));
  EXPECT_EQ(drain(*client0).size(), 4u);

  auto client1 = inner->connect();
  auto server1 = listener.accept();
  ASSERT_NE(server1, nullptr);
  ASSERT_TRUE(server1->write_all(bytes(16)));
  server1->shutdown_write();
  EXPECT_EQ(drain(*client1).size(), 16u);
}

}  // namespace
}  // namespace bgpcu::net
