// Deterministic fault injection for the transport layer. A FaultPlan is a
// seeded, reproducible schedule of link failures — disconnects at byte N,
// partial writes, read/write stalls, added latency — and FaultyConnection /
// FaultyListener wrap any Connection / Listener with one. Every failure mode
// the chaos suite exercises is a plan that can be replayed from its seed,
// so a production surprise becomes a regression test case.
//
// Byte offsets are cumulative per direction over the lifetime of the wrapped
// connection: "cut write at 7" lets exactly 7 bytes through (a partial write
// of the frame in flight), then severs the link — both directions, like a
// dropped TCP session — and every later operation reports peer-gone.
//
// Both Connection surfaces run the same plan. Blocking calls (clients)
// sleep through a stall; nonblocking calls (the server's event loop) report
// kWouldBlock until the stall's delay has passed, so a stalled server-side
// connection holds up nobody else on its loop — like a real slow peer. The
// wrapped fds stay ready meanwhile, so the loop re-polls that connection
// until the stall ends.
#ifndef BGPCU_NET_FAULT_H
#define BGPCU_NET_FAULT_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.h"

namespace bgpcu::net {

/// One scheduled fault.
struct Fault {
  enum class Kind : std::uint8_t {
    kCut,        ///< Sever the link once `at_bytes` have crossed in `dir`.
    kStall,      ///< Pause `delay` once, when the byte threshold is crossed.
    kShortWrite, ///< From `at_bytes` on, pass writes to the transport in
                 ///< chunks of at most `chunk` bytes (forces partial-write
                 ///< interleavings at the peer's frame decoder).
  };
  enum class Dir : std::uint8_t { kRead, kWrite };

  Kind kind = Kind::kCut;
  Dir dir = Dir::kWrite;
  std::uint64_t at_bytes = 0;
  std::chrono::milliseconds delay{0};  ///< kStall only.
  std::size_t chunk = 0;               ///< kShortWrite only; 0 = 1 byte.
};

/// A deterministic schedule of faults for one connection.
struct FaultPlan {
  std::vector<Fault> faults;

  [[nodiscard]] bool empty() const noexcept { return faults.empty(); }

  /// Link dies once `n` bytes have been written through the wrapper.
  [[nodiscard]] static FaultPlan cut_write_at(std::uint64_t n);
  /// Link dies once `n` bytes have been read through the wrapper.
  [[nodiscard]] static FaultPlan cut_read_at(std::uint64_t n);
  /// One `delay` pause before the write that crosses byte `n`.
  [[nodiscard]] static FaultPlan stall_write_at(std::uint64_t n,
                                               std::chrono::milliseconds delay);
  /// One `delay` pause before the read that crosses byte `n`.
  [[nodiscard]] static FaultPlan stall_read_at(std::uint64_t n,
                                              std::chrono::milliseconds delay);
  /// All writes from byte `n` on are split into `chunk`-byte transport writes.
  [[nodiscard]] static FaultPlan short_writes(std::size_t chunk, std::uint64_t from = 0);

  /// Seeded random plan: a cut at a uniformly random byte offset in
  /// [min_bytes, max_bytes), in a random direction, sometimes preceded by a
  /// short stall. The same seed always yields the same plan.
  [[nodiscard]] static FaultPlan random_cut(std::uint64_t seed, std::uint64_t min_bytes,
                                            std::uint64_t max_bytes);
};

/// Connection wrapper executing a FaultPlan. Thread model matches
/// Connection: one reader and one writer (threads, or the one loop thread
/// driving the nonblocking surface); stall state is under a mutex, and the
/// byte counters and severed flag are atomic.
class FaultyConnection : public Connection {
 public:
  FaultyConnection(std::unique_ptr<Connection> inner, FaultPlan plan);

  std::size_t read_some(std::span<std::uint8_t> out) override;
  void set_read_timeout(std::chrono::milliseconds timeout) override;
  bool write_all(std::span<const std::uint8_t> data) override;
  void shutdown_write() override;
  void close() override;
  [[nodiscard]] std::string peer_name() const override;
  /// The inner connection's readiness fds: faults change what a transfer
  /// moves, never when the transport is ready.
  [[nodiscard]] PollInfo poll_info() const override;
  IoStatus try_read(std::span<std::uint8_t> out, std::size_t& n) override;
  IoStatus try_write(std::span<const std::uint8_t> data, std::size_t& n) override;

  /// True once a kCut fault fired (diagnostics for tests/benches).
  [[nodiscard]] bool severed() const noexcept { return severed_.load(); }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept { return bytes_read_.load(); }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_.load(); }

 private:
  /// Bytes until the next kCut in `dir`; ~0 when none remains.
  [[nodiscard]] std::uint64_t cut_budget(Fault::Dir dir) const;
  /// How many of `want` bytes the next write may pass: the cut budget,
  /// capped further by any active kShortWrite.
  [[nodiscard]] std::uint64_t write_chunk(std::uint64_t want) const;
  /// Blocking stall: sleeps through each unfired stall in [before, after).
  void maybe_stall(Fault::Dir dir, std::uint64_t before, std::uint64_t after);
  /// Nonblocking stall: true while a stall in [before, after) is running.
  /// The first crossing starts its clock; it fires once the clock runs out.
  [[nodiscard]] bool stalled(Fault::Dir dir, std::uint64_t before, std::uint64_t after);
  void sever();

  std::unique_ptr<Connection> inner_;
  FaultPlan plan_;
  std::atomic<bool> severed_{false};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::mutex stall_mutex_;  ///< Guards the stall state (reader vs writer).
  std::vector<bool> fired_;
  /// When a started nonblocking stall ends; the epoch means not started.
  std::vector<std::chrono::steady_clock::time_point> stall_until_;
};

/// Wraps `inner` with `plan`; an empty plan still counts bytes but injects
/// nothing.
[[nodiscard]] std::unique_ptr<Connection> wrap_with_faults(std::unique_ptr<Connection> inner,
                                                           FaultPlan plan);

/// Listener wrapper handing each accepted connection its own plan: the
/// planner is called with the 0-based accept index, so a schedule like
/// "every third connection dies mid-frame" is one lambda.
class FaultyListener : public Listener {
 public:
  using Planner = std::function<FaultPlan(std::size_t accept_index)>;

  FaultyListener(std::shared_ptr<Listener> inner, Planner planner);

  std::unique_ptr<Connection> accept() override;
  void close() override;
  [[nodiscard]] std::string name() const override;

 private:
  std::shared_ptr<Listener> inner_;
  Planner planner_;
  std::atomic<std::size_t> accepted_{0};
};

}  // namespace bgpcu::net

#endif  // BGPCU_NET_FAULT_H
