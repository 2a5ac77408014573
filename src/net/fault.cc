#include "net/fault.h"

#include <algorithm>
#include <limits>
#include <random>
#include <thread>

namespace bgpcu::net {

FaultPlan FaultPlan::cut_write_at(std::uint64_t n) {
  return {{Fault{Fault::Kind::kCut, Fault::Dir::kWrite, n, {}, 0}}};
}

FaultPlan FaultPlan::cut_read_at(std::uint64_t n) {
  return {{Fault{Fault::Kind::kCut, Fault::Dir::kRead, n, {}, 0}}};
}

FaultPlan FaultPlan::stall_write_at(std::uint64_t n, std::chrono::milliseconds delay) {
  return {{Fault{Fault::Kind::kStall, Fault::Dir::kWrite, n, delay, 0}}};
}

FaultPlan FaultPlan::stall_read_at(std::uint64_t n, std::chrono::milliseconds delay) {
  return {{Fault{Fault::Kind::kStall, Fault::Dir::kRead, n, delay, 0}}};
}

FaultPlan FaultPlan::short_writes(std::size_t chunk, std::uint64_t from) {
  return {{Fault{Fault::Kind::kShortWrite, Fault::Dir::kWrite, from, {}, chunk}}};
}

FaultPlan FaultPlan::random_cut(std::uint64_t seed, std::uint64_t min_bytes,
                                std::uint64_t max_bytes) {
  std::mt19937_64 rng(seed);
  if (max_bytes <= min_bytes) max_bytes = min_bytes + 1;
  std::uniform_int_distribution<std::uint64_t> at(min_bytes, max_bytes - 1);
  FaultPlan plan;
  const auto cut_at = at(rng);
  const auto dir = (rng() & 1) ? Fault::Dir::kWrite : Fault::Dir::kRead;
  // One seed in four also stalls shortly before the cut, so the schedule
  // exercises "slow then dead" links, not just clean drops.
  if ((rng() & 3) == 0 && cut_at > 1) {
    std::uniform_int_distribution<std::uint64_t> stall_at(0, cut_at - 1);
    plan.faults.push_back(
        Fault{Fault::Kind::kStall, dir, stall_at(rng), std::chrono::milliseconds(5), 0});
  }
  plan.faults.push_back(Fault{Fault::Kind::kCut, dir, cut_at, {}, 0});
  return plan;
}

FaultyConnection::FaultyConnection(std::unique_ptr<Connection> inner, FaultPlan plan)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      fired_(plan_.faults.size(), false),
      stall_until_(plan_.faults.size()) {}

std::uint64_t FaultyConnection::cut_budget(Fault::Dir dir) const {
  auto budget = std::numeric_limits<std::uint64_t>::max();
  const auto done = dir == Fault::Dir::kRead ? bytes_read_.load() : bytes_written_.load();
  for (const auto& fault : plan_.faults) {
    if (fault.kind != Fault::Kind::kCut || fault.dir != dir) continue;
    budget = std::min(budget, fault.at_bytes > done ? fault.at_bytes - done : 0);
  }
  return budget;
}

std::uint64_t FaultyConnection::write_chunk(std::uint64_t want) const {
  auto chunk = std::min(want, cut_budget(Fault::Dir::kWrite));
  const auto written = bytes_written_.load();
  for (const auto& fault : plan_.faults) {
    if (fault.kind != Fault::Kind::kShortWrite || written < fault.at_bytes) continue;
    chunk = std::min<std::uint64_t>(chunk, std::max<std::size_t>(fault.chunk, 1));
  }
  return chunk;
}

bool FaultyConnection::stalled(Fault::Dir dir, std::uint64_t before, std::uint64_t after) {
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard lock(stall_mutex_);
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const auto& fault = plan_.faults[i];
    if (fault.kind != Fault::Kind::kStall || fault.dir != dir || fired_[i]) continue;
    if (stall_until_[i] == std::chrono::steady_clock::time_point{}) {
      if (fault.at_bytes < before || fault.at_bytes >= after) continue;
      stall_until_[i] = now + fault.delay;
    }
    if (now < stall_until_[i]) return true;
    fired_[i] = true;
  }
  return false;
}

void FaultyConnection::maybe_stall(Fault::Dir dir, std::uint64_t before,
                                   std::uint64_t after) {
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const auto& fault = plan_.faults[i];
    if (fault.kind != Fault::Kind::kStall || fault.dir != dir) continue;
    if (fault.at_bytes < before || fault.at_bytes >= after) continue;
    {
      const std::lock_guard lock(stall_mutex_);
      if (fired_[i]) continue;
      fired_[i] = true;
    }
    std::this_thread::sleep_for(fault.delay);
  }
}

void FaultyConnection::sever() {
  severed_.store(true);
  // A cut link drops both directions at once, exactly like a vanished TCP
  // peer: our reads hit EOF, our writes fail, and the real peer sees EOF.
  inner_->close();
}

std::size_t FaultyConnection::read_some(std::span<std::uint8_t> out) {
  if (severed_.load()) return 0;
  const auto budget = cut_budget(Fault::Dir::kRead);
  if (budget == 0) {
    sever();
    return 0;
  }
  const auto want = std::min<std::uint64_t>(out.size(), budget);
  const auto before = bytes_read_.load();
  maybe_stall(Fault::Dir::kRead, before, before + want);
  const auto n = inner_->read_some(out.subspan(0, static_cast<std::size_t>(want)));
  bytes_read_.fetch_add(n);
  if (n > 0 && cut_budget(Fault::Dir::kRead) == 0) {
    // The bytes up to the boundary are delivered; the link dies behind them.
    sever();
  }
  return n;
}

void FaultyConnection::set_read_timeout(std::chrono::milliseconds timeout) {
  inner_->set_read_timeout(timeout);
}

bool FaultyConnection::write_all(std::span<const std::uint8_t> data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    if (severed_.load()) return false;
    if (cut_budget(Fault::Dir::kWrite) == 0) {
      sever();
      return false;
    }
    const auto chunk = write_chunk(data.size() - offset);
    const auto written = bytes_written_.load();
    maybe_stall(Fault::Dir::kWrite, written, written + chunk);
    if (!inner_->write_all(data.subspan(offset, static_cast<std::size_t>(chunk)))) {
      return false;
    }
    bytes_written_.fetch_add(chunk);
    offset += static_cast<std::size_t>(chunk);
    if (cut_budget(Fault::Dir::kWrite) == 0) {
      // The frame in flight was partially delivered — the peer's decoder is
      // left holding a torn prefix, which is the point.
      sever();
      return false;
    }
  }
  return true;
}

void FaultyConnection::shutdown_write() { inner_->shutdown_write(); }

void FaultyConnection::close() { inner_->close(); }

std::string FaultyConnection::peer_name() const {
  return inner_->peer_name() + " (faulty)";
}

PollInfo FaultyConnection::poll_info() const { return inner_->poll_info(); }

IoStatus FaultyConnection::try_read(std::span<std::uint8_t> out, std::size_t& n) {
  n = 0;
  if (severed_.load()) return IoStatus::kEof;
  const auto budget = cut_budget(Fault::Dir::kRead);
  if (budget == 0) {
    sever();
    return IoStatus::kEof;
  }
  const auto want = std::min<std::uint64_t>(out.size(), budget);
  const auto before = bytes_read_.load();
  if (stalled(Fault::Dir::kRead, before, before + want)) return IoStatus::kWouldBlock;
  const auto status = inner_->try_read(out.subspan(0, static_cast<std::size_t>(want)), n);
  if (status != IoStatus::kOk) return status;
  bytes_read_.fetch_add(n);
  // As in read_some: the bytes up to the boundary are delivered, then the
  // link dies behind them and the next call sees kEof.
  if (cut_budget(Fault::Dir::kRead) == 0) sever();
  return IoStatus::kOk;
}

IoStatus FaultyConnection::try_write(std::span<const std::uint8_t> data, std::size_t& n) {
  n = 0;
  if (severed_.load()) return IoStatus::kEof;
  if (cut_budget(Fault::Dir::kWrite) == 0) {
    sever();
    return IoStatus::kEof;
  }
  const auto chunk = write_chunk(data.size());
  const auto written = bytes_written_.load();
  if (stalled(Fault::Dir::kWrite, written, written + chunk)) return IoStatus::kWouldBlock;
  const auto status = inner_->try_write(data.subspan(0, static_cast<std::size_t>(chunk)), n);
  if (status != IoStatus::kOk) return status;
  bytes_written_.fetch_add(n);
  if (cut_budget(Fault::Dir::kWrite) == 0) sever();
  return IoStatus::kOk;
}

std::unique_ptr<Connection> wrap_with_faults(std::unique_ptr<Connection> inner,
                                             FaultPlan plan) {
  return std::make_unique<FaultyConnection>(std::move(inner), std::move(plan));
}

FaultyListener::FaultyListener(std::shared_ptr<Listener> inner, Planner planner)
    : inner_(std::move(inner)), planner_(std::move(planner)) {}

std::unique_ptr<Connection> FaultyListener::accept() {
  auto conn = inner_->accept();
  if (!conn) return nullptr;
  const auto index = accepted_.fetch_add(1);
  auto plan = planner_ ? planner_(index) : FaultPlan{};
  if (plan.empty()) return conn;
  return wrap_with_faults(std::move(conn), std::move(plan));
}

void FaultyListener::close() { inner_->close(); }

std::string FaultyListener::name() const { return inner_->name() + " (faulty)"; }

}  // namespace bgpcu::net
