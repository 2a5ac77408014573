// Unit coverage for the epoll readiness multiplexer underneath the
// event-driven server: level-triggered readiness, interest updates, removal,
// hangup reporting and cross-thread wakeups.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <thread>

#include "net/poller.h"

namespace bgpcu::net {
namespace {

using namespace std::chrono_literals;

/// A nonblocking pipe that closes itself; read end [0], write end [1].
struct Pipe {
  Pipe() {
    std::array<int, 2> fds{-1, -1};
    EXPECT_EQ(pipe2(fds.data(), O_NONBLOCK | O_CLOEXEC), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    if (read_fd >= 0) ::close(read_fd);
    if (write_fd >= 0) ::close(write_fd);
  }
  void close_write() {
    ::close(write_fd);
    write_fd = -1;
  }
  int read_fd;
  int write_fd;
};

bool has_token(const std::vector<PollerEvent>& events, std::uint64_t token) {
  for (const auto& event : events) {
    if (event.token == token) return true;
  }
  return false;
}

const PollerEvent* find_token(const std::vector<PollerEvent>& events,
                              std::uint64_t token) {
  for (const auto& event : events) {
    if (event.token == token) return &event;
  }
  return nullptr;
}

// The suite stays value-parameterized over the backend, so its cases keep
// their `Backends/PollerTest.<case>/epoll` names; epoll is the only one.
enum class Backend : std::uint8_t { kEpoll };

class PollerTest : public ::testing::TestWithParam<Backend> {
 protected:
  Poller poller_;
  std::vector<PollerEvent> events_;
};

TEST_P(PollerTest, IdlePipeReportsNothing) {
  Pipe pipe;
  poller_.set(pipe.read_fd, 7, /*want_read=*/true, /*want_write=*/false);
  EXPECT_EQ(poller_.wait(events_, 0), 0u);
  EXPECT_TRUE(events_.empty());
}

TEST_P(PollerTest, DataMakesReadEndReadable) {
  Pipe pipe;
  poller_.set(pipe.read_fd, 7, true, false);
  ASSERT_EQ(::write(pipe.write_fd, "x", 1), 1);
  ASSERT_GE(poller_.wait(events_, 1000), 1u);
  const auto* event = find_token(events_, 7);
  ASSERT_NE(event, nullptr);
  EXPECT_TRUE(event->readable);
  EXPECT_FALSE(event->writable);
}

TEST_P(PollerTest, EmptyPipeWriteEndIsWritable) {
  Pipe pipe;
  poller_.set(pipe.write_fd, 9, false, true);
  ASSERT_GE(poller_.wait(events_, 1000), 1u);
  const auto* event = find_token(events_, 9);
  ASSERT_NE(event, nullptr);
  EXPECT_TRUE(event->writable);
}

TEST_P(PollerTest, PeerCloseReportsHangupOrReadable) {
  // Closing the write end must surface on the read end so the owner's next
  // read observes EOF — either as a hangup flag or plain readability.
  Pipe pipe;
  poller_.set(pipe.read_fd, 3, true, false);
  pipe.close_write();
  ASSERT_GE(poller_.wait(events_, 1000), 1u);
  const auto* event = find_token(events_, 3);
  ASSERT_NE(event, nullptr);
  EXPECT_TRUE(event->readable || event->hangup);
}

TEST_P(PollerTest, TokensDistinguishFds) {
  Pipe a;
  Pipe b;
  poller_.set(a.read_fd, 1, true, false);
  poller_.set(b.read_fd, 2, true, false);
  ASSERT_EQ(::write(b.write_fd, "y", 1), 1);
  ASSERT_GE(poller_.wait(events_, 1000), 1u);
  EXPECT_FALSE(has_token(events_, 1));
  EXPECT_TRUE(has_token(events_, 2));
}

TEST_P(PollerTest, RemoveDropsTheFd) {
  Pipe pipe;
  poller_.set(pipe.read_fd, 5, true, false);
  ASSERT_EQ(::write(pipe.write_fd, "x", 1), 1);
  poller_.remove(pipe.read_fd);
  EXPECT_EQ(poller_.wait(events_, 0), 0u);
  poller_.remove(pipe.read_fd);  // unknown fds are ignored
}

TEST_P(PollerTest, NoInterestMeansRemoval) {
  Pipe pipe;
  poller_.set(pipe.read_fd, 5, true, false);
  ASSERT_EQ(::write(pipe.write_fd, "x", 1), 1);
  poller_.set(pipe.read_fd, 5, false, false);
  EXPECT_EQ(poller_.wait(events_, 0), 0u);
}

TEST_P(PollerTest, InterestUpdateSwitchesDirection) {
  Pipe pipe;
  // Watch the write end for readability first (never fires), then flip the
  // same registration to writability — the update must take effect.
  poller_.set(pipe.write_fd, 11, true, false);
  EXPECT_EQ(poller_.wait(events_, 0), 0u);
  poller_.set(pipe.write_fd, 11, false, true);
  ASSERT_GE(poller_.wait(events_, 1000), 1u);
  EXPECT_TRUE(has_token(events_, 11));
}

TEST_P(PollerTest, LevelTriggeredUntilDrained) {
  // The server relies on level semantics: unconsumed bytes re-report on the
  // next wait (its read budget may leave data behind).
  Pipe pipe;
  poller_.set(pipe.read_fd, 4, true, false);
  ASSERT_EQ(::write(pipe.write_fd, "xy", 2), 2);
  ASSERT_GE(poller_.wait(events_, 1000), 1u);
  ASSERT_GE(poller_.wait(events_, 1000), 1u);
  EXPECT_TRUE(has_token(events_, 4));
  char buffer[8];
  ASSERT_EQ(::read(pipe.read_fd, buffer, sizeof(buffer)), 2);
  EXPECT_EQ(poller_.wait(events_, 0), 0u);
}

TEST_P(PollerTest, WakeUnblocksAConcurrentWait) {
  const auto started = std::chrono::steady_clock::now();
  std::thread waker([this] {
    std::this_thread::sleep_for(50ms);
    poller_.wake();
  });
  // No fds registered: only the wake can end this wait before the timeout.
  (void)poller_.wait(events_, 10000);
  waker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - started, 5s);
  // The wake token never leaks into results.
  for (const auto& event : events_) {
    EXPECT_NE(event.token, ~std::uint64_t{0});
  }
}

TEST_P(PollerTest, WakeBeforeWaitIsNotLost) {
  poller_.wake();
  const auto started = std::chrono::steady_clock::now();
  (void)poller_.wait(events_, 10000);
  EXPECT_LT(std::chrono::steady_clock::now() - started, 5s);
}

INSTANTIATE_TEST_SUITE_P(Backends, PollerTest, ::testing::Values(Backend::kEpoll),
                         [](const auto&) { return "epoll"; });

}  // namespace
}  // namespace bgpcu::net
