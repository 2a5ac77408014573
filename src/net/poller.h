// Readiness multiplexer behind the event-driven serving loop: one epoll
// instance watching many fds, returning which are readable/writable — O(ready)
// wakeups and no per-wait registration rebuild.
//
// Thread model: set/remove/wait belong to one owning loop thread; wake() is
// the only call safe from other threads (it makes a blocked wait() return).
#ifndef BGPCU_NET_POLLER_H
#define BGPCU_NET_POLLER_H

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace bgpcu::net {

/// One ready fd, identified by the token it was registered with.
struct PollerEvent {
  std::uint64_t token = 0;
  bool readable = false;
  bool writable = false;
  /// Error/hangup on the fd. Reported alongside readable so the owner's
  /// next read observes the EOF/reset instead of spinning on the event.
  bool hangup = false;
};

class Poller {
 public:
  /// Throws std::runtime_error when the epoll instance or its wake eventfd
  /// cannot be created.
  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd` under `token`, or updates its interest set if already
  /// registered. Asking for neither read nor write removes the fd.
  /// Registration survives a racing close of the fd number (stale entries
  /// are reconciled on the next set/remove), but the owner should remove
  /// fds before releasing them.
  void set(int fd, std::uint64_t token, bool want_read, bool want_write);

  /// Drops `fd` from the watch set. Unknown fds are ignored.
  void remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever, 0 = poll-and-return) and
  /// appends ready fds to `out` (cleared first). wake() calls are consumed
  /// internally and may yield an empty result. Returns the event count.
  std::size_t wait(std::vector<PollerEvent>& out, int timeout_ms);

  /// Makes a concurrent (or the next) wait() return promptly. The only
  /// member safe to call from a thread other than the owning loop.
  void wake();

 private:
  int epfd_;
  int wake_fd_;
  /// fds we believe are registered; advisory only (see set()).
  std::unordered_set<int> registered_;
};

}  // namespace bgpcu::net

#endif  // BGPCU_NET_POLLER_H
