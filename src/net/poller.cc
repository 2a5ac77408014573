#include "net/poller.h"

#include <cerrno>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

namespace bgpcu::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int make_wake_eventfd() {
  const int fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (fd < 0) throw_errno("eventfd");
  return fd;
}

void drain_eventfd(int fd) {
  std::uint64_t buf = 0;
  // Nonblocking: EAGAIN just means nobody woke us since the last drain.
  while (::read(fd, &buf, sizeof(buf)) == static_cast<ssize_t>(sizeof(buf))) {
  }
}

void signal_eventfd(int fd) {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated — the wakeup is already pending.
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

// Sentinel token for the internal wake fd; never surfaced to callers.
constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

}  // namespace

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)), wake_fd_(make_wake_eventfd()) {
  if (epfd_ < 0) throw_errno("epoll_create1");
  ::epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) throw_errno("epoll_ctl(wake)");
}

Poller::~Poller() {
  ::close(wake_fd_);
  ::close(epfd_);
}

void Poller::set(int fd, std::uint64_t token, bool want_read, bool want_write) {
  if (!want_read && !want_write) {
    remove(fd);
    return;
  }
  ::epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = token;
  // Try the cheaper path first based on what we believe is registered,
  // then reconcile: a closed-and-reused fd number makes our bookkeeping
  // stale, so MOD can hit ENOENT and ADD can hit EEXIST.
  const bool known = registered_.count(fd) != 0;
  int op = known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epfd_, op, fd, &ev) != 0) {
    if (op == EPOLL_CTL_MOD && errno == ENOENT) {
      op = EPOLL_CTL_ADD;
    } else if (op == EPOLL_CTL_ADD && errno == EEXIST) {
      op = EPOLL_CTL_MOD;
    } else {
      throw_errno("epoll_ctl");
    }
    if (::epoll_ctl(epfd_, op, fd, &ev) != 0) throw_errno("epoll_ctl(retry)");
  }
  registered_.insert(fd);
}

void Poller::remove(int fd) {
  registered_.erase(fd);
  if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    if (errno != ENOENT && errno != EBADF) throw_errno("epoll_ctl(del)");
  }
}

std::size_t Poller::wait(std::vector<PollerEvent>& out, int timeout_ms) {
  out.clear();
  ::epoll_event evs[128];
  int n;
  do {
    n = ::epoll_wait(epfd_, evs, static_cast<int>(std::size(evs)), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) throw_errno("epoll_wait");
  for (int i = 0; i < n; ++i) {
    if (evs[i].data.u64 == kWakeToken) {
      drain_eventfd(wake_fd_);
      continue;
    }
    PollerEvent pe;
    pe.token = evs[i].data.u64;
    pe.hangup = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    pe.readable = (evs[i].events & EPOLLIN) != 0 || pe.hangup;
    pe.writable = (evs[i].events & EPOLLOUT) != 0;
    out.push_back(pe);
  }
  return out.size();
}

void Poller::wake() { signal_eventfd(wake_fd_); }

}  // namespace bgpcu::net
