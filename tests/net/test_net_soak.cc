// Concurrency soak over the full serving stack (label: soak — excluded by
// the 'fast' ctest preset, run by CI's full matrix): N client threads
// hammer queries through the loopback transport while a driver thread
// churns ingest + epoch advances + publishes. The after-collect hook widens
// the snapshot-sweep window (sweeps run with no engine lock held), so
// queries genuinely overlap sweeps in flight. Every response must be
// internally consistent: per-connection stats epochs never regress, frames
// are never torn (a torn frame cannot decode), per-ASN answers always equal
// reclassifying their own counters, and a subscriber sees strictly
// ascending epochs with sorted change lists.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/service.h"
#include "core/classifier.h"
#include "counter_baseline.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "topology/rng.h"

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

TEST(NetSoak, ConcurrentClientsSeeConsistentResponsesUnderChurn) {
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 80;
  constexpr stream::Epoch kEpochs = 40;
  constexpr bgp::Asn kAsnSpace = 64;

  api::Service service({.stream = {.shards = 4, .window_epochs = 2}});
  const auto thresholds = service.config().stream.engine.thresholds;

  // Hold every publish's sweep open briefly: queries from other threads now
  // reliably overlap in-flight sweeps, which they must not wait for.
  std::atomic<std::uint64_t> sweeps_started{0};
  service.set_after_collect_hook([&] {
    sweeps_started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });

  auto listener = std::make_shared<LoopbackListener>();
  Server server(service, listener);
  const CounterBaseline counted;
  server.start();

  std::atomic<bool> driver_done{false};
  std::atomic<int> failures{0};

  // Driver: churn tuples whose tagging flips by epoch parity, so classes
  // keep changing and every publish carries real deltas.
  std::thread driver([&] {
    topology::Rng rng(4242);
    for (stream::Epoch e = 0; e < kEpochs; ++e) {
      if (e > 0) (void)service.advance_epoch();
      core::Dataset batch;
      for (int i = 0; i < 24; ++i) {
        const auto peer = static_cast<bgp::Asn>(1 + rng.below(kAsnSpace));
        const auto origin = static_cast<bgp::Asn>(1000 + rng.below(kAsnSpace));
        batch.push_back(tuple(peer, origin, (e + peer) % 2 == 0));
      }
      (void)service.ingest(std::move(batch));
      (void)service.publish();
      std::this_thread::yield();
    }
    driver_done.store(true);
  });

  // One subscriber connection: epochs strictly ascend, changes stay sorted.
  std::thread subscriber([&] {
    try {
      Client client(listener->connect());
      (void)client.subscribe({});
      std::optional<stream::Epoch> last_epoch;
      while (!driver_done.load()) {
        // next_event blocks; the driver keeps publishing until done, so
        // poll via the event stream itself.
        const auto event = client.next_event();
        if (!event) break;
        if (last_epoch && event->delta.epoch <= *last_epoch) {
          ADD_FAILURE() << "subscription epoch regressed: " << *last_epoch << " -> "
                        << event->delta.epoch;
          failures.fetch_add(1);
          break;
        }
        last_epoch = event->delta.epoch;
        for (std::size_t i = 1; i < event->delta.changes.size(); ++i) {
          if (event->delta.changes[i - 1].asn >= event->delta.changes[i].asn) {
            ADD_FAILURE() << "delta changes not strictly ascending";
            failures.fetch_add(1);
          }
        }
      }
      client.close();
    } catch (const TransportError&) {
      // Server shutdown racing the last read is fine.
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client(listener->connect());
        topology::Rng rng(100 + static_cast<std::uint64_t>(c));
        stream::Epoch last_epoch = 0;
        stream::Epoch last_published = 0;
        // The published epoch an answer carries must never run backwards
        // on one connection either.
        const auto check_published = [&](stream::Epoch epoch) {
          if (epoch < last_published) {
            ADD_FAILURE() << "published epoch regressed on client " << c;
            failures.fetch_add(1);
          }
          last_published = epoch;
        };
        for (int i = 0; i < kQueriesPerClient; ++i) {
          // Stats: the service epoch a single connection observes must
          // never run backwards (responses are answered in order).
          const auto stats = client.query({.kind = api::QueryKind::kStats});
          if (!stats.stats || stats.stats->epoch < last_epoch) {
            ADD_FAILURE() << "stats epoch regressed on client " << c;
            failures.fetch_add(1);
            break;
          }
          last_epoch = stats.stats->epoch;

          const auto asn = static_cast<bgp::Asn>(1 + rng.below(kAsnSpace));
          if (i % 4 == 0) {
            // Snapshot: a torn or interleaved frame would fail to decode
            // long before this assert.
            const auto snapshot = client.query({.kind = api::QueryKind::kSnapshot});
            if (!snapshot.snapshot) {
              ADD_FAILURE() << "snapshot response missing body";
              failures.fetch_add(1);
              break;
            }
            check_published(snapshot.epoch);
            const auto usage = snapshot.snapshot->usage(asn);
            if (usage != core::classify(snapshot.snapshot->counters(asn),
                                        snapshot.snapshot->thresholds())) {
              ADD_FAILURE() << "snapshot internally inconsistent for AS " << asn;
              failures.fetch_add(1);
            }
          } else {
            const auto answer = client.query({.kind = api::QueryKind::kClassOf, .asn = asn});
            check_published(answer.epoch);
            if (!answer.asn_class ||
                answer.asn_class->usage != core::classify(answer.asn_class->counters,
                                                          thresholds)) {
              ADD_FAILURE() << "per-ASN answer inconsistent for AS " << asn;
              failures.fetch_add(1);
            }
          }
        }
        client.close();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << " died: " << e.what();
        failures.fetch_add(1);
      }
    });
  }

  driver.join();
  for (auto& t : clients) t.join();
  // Unblock the subscriber's final next_event (it may be waiting for an
  // event that will never come now that the driver stopped).
  server.stop();
  subscriber.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(sweeps_started.load(), 0u) << "hook never fired: no sweep overlapped the soak";
  EXPECT_EQ(counted(obs::metrics().net_slow_disconnects), 0u);
}

}  // namespace
}  // namespace bgpcu::net
