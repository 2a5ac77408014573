// Registry counters are process-wide and never reset, so a test binary run
// as one process (./bgpcu_test_net) carries every earlier case's counts.
// The net tests therefore assert how far a server counter moved since a
// baseline read before the server under test started, never its absolute
// value.
#ifndef BGPCU_TESTS_NET_COUNTER_BASELINE_H
#define BGPCU_TESTS_NET_COUNTER_BASELINE_H

#include <cstdint>
#include <map>

#include "obs/wellknown.h"

namespace bgpcu::net {

/// The net::Server's registry counters as read at construction.
class CounterBaseline {
 public:
  CounterBaseline() {
    auto& m = obs::metrics();
    for (const obs::Counter* counter :
         {&m.net_connections_accepted, &m.net_connections_rejected, &m.net_auth_failures,
          &m.net_frames_received, &m.net_frames_sent, &m.net_protocol_errors,
          &m.net_slow_disconnects, &m.net_pings_received, &m.net_keepalive_probes,
          &m.net_keepalive_disconnects, &m.net_requests_shed, &m.net_busy_rejections}) {
      base_[counter] = counter->value();
    }
  }

  /// How far `counter` moved since construction. Throws std::out_of_range
  /// for a counter that is not one of the server's.
  [[nodiscard]] std::uint64_t operator()(const obs::Counter& counter) const {
    return counter.value() - base_.at(&counter);
  }

 private:
  std::map<const obs::Counter*, std::uint64_t> base_;
};

}  // namespace bgpcu::net

#endif  // BGPCU_TESTS_NET_COUNTER_BASELINE_H
