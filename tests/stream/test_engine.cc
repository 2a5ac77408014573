// StreamEngine unit tests: ingest accounting, snapshot equivalence on
// hand-written inputs, snapshot caching, live counters, concurrent ingest.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/engine.h"
#include "obs/wellknown.h"
#include "stream/engine.h"

namespace bgpcu::stream {
namespace {

core::PathCommTuple tuple(std::vector<bgp::Asn> path, std::vector<bgp::CommunityValue> comms = {}) {
  core::PathCommTuple t;
  t.path = std::move(path);
  t.comms = std::move(comms);
  return t;
}

void expect_equal(const core::InferenceResult& stream, const core::InferenceResult& batch) {
  EXPECT_EQ(stream.counter_map().size(), batch.counter_map().size());
  for (const auto& [asn, k] : batch.counter_map()) {
    EXPECT_EQ(stream.counters(asn), k) << "AS " << asn;
  }
}

TEST(StreamEngine, IngestStatsAccounting) {
  StreamEngine engine({.shards = 4});
  core::Dataset batch;
  batch.push_back(tuple({1, 2, 3}));
  batch.push_back(tuple({1, 2, 3}));  // duplicate within batch
  batch.push_back(tuple({4, 5}));
  batch.push_back(tuple({}));  // rejected
  const auto stats = engine.ingest(std::move(batch));
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.refreshed, 0u);
  EXPECT_EQ(engine.live_tuples(), 2u);

  engine.advance_epoch();
  core::Dataset again;
  again.push_back(tuple({1, 2, 3}));
  const auto stats2 = engine.ingest(std::move(again));
  EXPECT_EQ(stats2.refreshed, 1u);
  EXPECT_EQ(engine.live_tuples(), 2u);
}

TEST(StreamEngine, SnapshotMatchesColumnEngineOnHandWrittenInput) {
  // A small scenario with actual knowledge transfer: peer 10 is a tagger,
  // which illuminates forwarding behavior at AS 20.
  core::Dataset d;
  for (int origin = 100; origin < 120; ++origin) {
    d.push_back(tuple({10, 20, static_cast<bgp::Asn>(origin)},
                      {bgp::CommunityValue::regular(10, 1),
                       bgp::CommunityValue::regular(20, 2)}));
  }
  d.push_back(tuple({30, 10, 50}, {bgp::CommunityValue::regular(10, 1)}));

  StreamEngine engine({.shards = 4});
  (void)engine.ingest(d);
  auto expected = d;
  core::deduplicate(expected);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(expected));
}

TEST(StreamEngine, SnapshotIdenticalAcrossBatchSplits) {
  core::Dataset d;
  for (int i = 0; i < 50; ++i) {
    d.push_back(tuple({static_cast<bgp::Asn>(1 + i % 7), static_cast<bgp::Asn>(10 + i % 5),
                       static_cast<bgp::Asn>(100 + i)},
                      {bgp::CommunityValue::regular(static_cast<std::uint16_t>(1 + i % 7), 1)}));
  }

  StreamEngine whole({.shards = 2});
  (void)whole.ingest(d);

  StreamEngine split({.shards = 8});
  for (std::size_t start = 0; start < d.size(); start += 7) {
    core::Dataset batch(d.begin() + static_cast<std::ptrdiff_t>(start),
                        d.begin() + static_cast<std::ptrdiff_t>(std::min(start + 7, d.size())));
    (void)split.ingest(std::move(batch));
    split.advance_epoch();
  }

  const auto a = whole.snapshot();
  const auto b = split.snapshot();
  EXPECT_EQ(a->counter_map(), b->counter_map());
}

TEST(StreamEngine, SnapshotCachedUntilMutation) {
  StreamEngine engine({.shards = 2});
  (void)engine.ingest({tuple({1, 2}), tuple({3, 4})});
  const auto first = engine.snapshot();
  const auto second = engine.snapshot();  // served from cache
  // A cache hit hands out the same immutable object — no deep copy.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->counter_map(), second->counter_map());

  (void)engine.ingest({tuple({5, 6})});
  const auto third = engine.snapshot();
  EXPECT_NE(third.get(), first.get());
  EXPECT_NE(third->counter_map(), first->counter_map());
}

TEST(StreamEngine, LiveCountersMatchSnapshotAtPeerColumn) {
  StreamEngine engine({.shards = 4});
  core::Dataset d;
  d.push_back(tuple({10, 2, 3}, {bgp::CommunityValue::regular(10, 1)}));
  d.push_back(tuple({10, 4}, {bgp::CommunityValue::regular(10, 9)}));
  d.push_back(tuple({10, 5}));
  d.push_back(tuple({20, 5}));
  (void)engine.ingest(std::move(d));

  // Column 1 has vacuous Cond1: snapshot peer-column evidence equals the
  // incrementally maintained live counters.
  EXPECT_EQ(engine.live_counters(10).t, 2u);
  EXPECT_EQ(engine.live_counters(10).s, 1u);
  EXPECT_EQ(engine.live_counters(20).s, 1u);
  const auto snap = engine.snapshot();
  EXPECT_EQ(snap->counters(10).t, engine.live_counters(10).t);
  EXPECT_EQ(snap->counters(10).s, engine.live_counters(10).s);
}

TEST(StreamEngine, ConcurrentIngestMatchesSequential) {
  // Build distinct slices and ingest them from competing threads; the final
  // snapshot must equal a batch run over the union regardless of schedule.
  constexpr int kThreads = 4;
  std::vector<core::Dataset> slices(kThreads);
  core::Dataset all;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 200; ++i) {
      auto tp = tuple({static_cast<bgp::Asn>(1 + (t * 7 + i) % 23),
                       static_cast<bgp::Asn>(30 + i % 11), static_cast<bgp::Asn>(100 + i)},
                      {bgp::CommunityValue::regular(
                          static_cast<std::uint16_t>(1 + (t * 7 + i) % 23), 1)});
      slices[t].push_back(tp);
      all.push_back(std::move(tp));
    }
  }

  StreamEngine engine({.shards = 8});
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&engine, &slices, t] { (void)engine.ingest(slices[t]); });
    }
  }
  core::deduplicate(all);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(all));
}

TEST(StreamEngine, IngestAndLiveQueriesProceedWhileSweepInFlight) {
  // Deterministic non-blocking proof: the after-collect hook runs between
  // the collection lock's release and the sweep, and it *blocks the
  // snapshot thread* until the main thread has pushed an ingest and read
  // live counters. If either operation still needed the engine lock held by
  // the sweep (the old protocol), this test would time out instead of
  // passing — no sleeps, no timing guesses.
  StreamEngine engine({.shards = 4});
  core::Dataset initial;
  for (int i = 0; i < 64; ++i) {
    initial.push_back(tuple({static_cast<bgp::Asn>(1 + i % 9),
                             static_cast<bgp::Asn>(20 + i % 5),
                             static_cast<bgp::Asn>(100 + i)},
                            {bgp::CommunityValue::regular(
                                static_cast<std::uint16_t>(1 + i % 9), 1)}));
  }
  (void)engine.ingest(initial);

  std::mutex m;
  std::condition_variable cv;
  bool collected = false;
  bool mutated_during_sweep = false;
  engine.set_after_collect_hook([&] {
    std::unique_lock lock(m);
    collected = true;
    cv.notify_all();
    // Hold the sweep until the concurrent mutations have gone through.
    cv.wait(lock, [&] { return mutated_during_sweep; });
  });

  SnapshotPtr snap;
  std::thread sweeper([&] { snap = engine.snapshot(); });
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return collected; });
  }
  // Sweep is in flight (parked in the hook, lock released): both of these
  // must complete without waiting for it.
  (void)engine.ingest({tuple({7, 8, 9})});
  EXPECT_EQ(engine.live_counters(7).s, 1u);  // the mid-sweep ingest is already queryable
  {
    const std::lock_guard lock(m);
    mutated_during_sweep = true;
  }
  cv.notify_all();
  sweeper.join();

  // The snapshot reflects its collection-time cut (without {7,8,9})...
  auto expected = initial;
  core::deduplicate(expected);
  expect_equal(*snap, core::ColumnEngine().run(expected));
  // ...and the next snapshot sees the tuple ingested mid-sweep.
  engine.set_after_collect_hook({});
  auto with_concurrent = initial;
  with_concurrent.push_back(tuple({7, 8, 9}));
  core::deduplicate(with_concurrent);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(with_concurrent));
}

TEST(StreamEngine, ConcurrentColdSnapshotsShareOneSweep) {
  // Single-flight: a snapshot that races an in-flight sweep of the same cut
  // waits for its install and resolves from the cache — both callers end up
  // holding the same immutable object, and only one sweep runs.
  StreamEngine engine({.shards = 4});
  (void)engine.ingest({tuple({1, 2, 3}, {bgp::CommunityValue::regular(1, 1)}),
                       tuple({4, 5, 6})});

  std::mutex m;
  std::condition_variable cv;
  bool collected = false;
  bool release = false;
  std::atomic<int> sweeps{0};
  engine.set_after_collect_hook([&] {
    sweeps.fetch_add(1);
    std::unique_lock lock(m);
    collected = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });

  SnapshotPtr a, b;
  std::thread first([&] { a = engine.snapshot(); });
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return collected; });
  }
  // First sweep is parked in flight; a second snapshot of the same cut must
  // wait for it instead of sweeping again (the hook counter catches a
  // duplicate).
  std::thread second([&] { b = engine.snapshot(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    const std::lock_guard lock(m);
    release = true;
  }
  cv.notify_all();
  first.join();
  second.join();

  EXPECT_EQ(sweeps.load(), 1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
}

TEST(StreamEngine, AsVanishingEntirelyAndReappearingMatchesOracle) {
  // Window 1: each epoch's snapshot covers only that epoch's tuples. AS 42
  // exists in epoch 0, vanishes entirely (all its tuples age out, leaving a
  // dense id with no live rows), then reappears — the incremental index must
  // track the from-scratch oracle through all three states.
  StreamConfig config;
  config.shards = 4;
  config.window_epochs = 1;
  StreamEngine engine(config);

  core::Dataset with_42;
  for (int origin = 100; origin < 110; ++origin) {
    with_42.push_back(tuple({42, 20, static_cast<bgp::Asn>(origin)},
                            {bgp::CommunityValue::regular(42, 1)}));
  }
  core::Dataset without_42;
  for (int origin = 200; origin < 210; ++origin) {
    without_42.push_back(tuple({30, 20, static_cast<bgp::Asn>(origin)},
                               {bgp::CommunityValue::regular(30, 1)}));
  }

  (void)engine.ingest(with_42);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(with_42));

  engine.advance_epoch();
  (void)engine.ingest(without_42);
  const auto snap = engine.snapshot();
  expect_equal(*snap, core::ColumnEngine().run(without_42));
  EXPECT_EQ(snap->counters(42), core::UsageCounters{}) << "vanished AS still counted";

  engine.advance_epoch();
  (void)engine.ingest(with_42);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(with_42));
}

TEST(StreamEngine, WindowAgingEvictsWholePathLengthGroup) {
  // Epoch 0 is all 4-hop paths, epoch 1 all 2-hop: the aging step kills the
  // length-4 group outright, so the maintained index must stop sweeping
  // columns 3 and 4 exactly like a fresh build over the 2-hop survivors
  // (columns_swept is part of the equivalence, not just the counters).
  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    StreamConfig config;
    config.shards = 4;
    config.window_epochs = 1;
    config.engine.threads = threads;
    StreamEngine engine(config);

    core::Dataset long_paths;
    for (int origin = 100; origin < 115; ++origin) {
      long_paths.push_back(tuple({10, 20, 30, static_cast<bgp::Asn>(origin)},
                                 {bgp::CommunityValue::regular(10, 1),
                                  bgp::CommunityValue::regular(20, 2)}));
    }
    core::Dataset short_paths;
    for (int origin = 200; origin < 215; ++origin) {
      short_paths.push_back(tuple({10, static_cast<bgp::Asn>(origin)},
                                  {bgp::CommunityValue::regular(10, 1)}));
    }

    (void)engine.ingest(long_paths);
    auto before = engine.snapshot();
    auto oracle_before = core::ColumnEngine({.threads = 1}).run(long_paths);
    expect_equal(*before, oracle_before);
    EXPECT_EQ(before->columns_swept(), oracle_before.columns_swept());

    engine.advance_epoch();
    (void)engine.ingest(short_paths);
    auto after = engine.snapshot();
    auto oracle_after = core::ColumnEngine({.threads = 1}).run(short_paths);
    expect_equal(*after, oracle_after);
    EXPECT_EQ(after->columns_swept(), oracle_after.columns_swept());
    EXPECT_EQ(engine.evicted_total(), long_paths.size());
  }
}

// The snapshot path counts only into the process-wide obs registry, which
// every case in this binary shares: these tests read its series as movement
// since values taken before their engine exists.

TEST(StreamEngine, SnapshotCountersTrackLockedPhaseAndMaintenance) {
  auto& m = obs::metrics();
  const auto sweeps = m.snapshot_sweeps.value();
  const auto hits = m.snapshot_cache_hits.value();
  const auto deltas = m.index_deltas_applied.value();
  const auto locked_total = m.snapshot_locked_ns.sum();
  StreamConfig config;
  config.shards = 2;
  config.window_epochs = 1;
  StreamEngine engine(config);
  EXPECT_EQ(m.snapshot_sweeps.value(), sweeps);
  EXPECT_EQ(m.snapshot_locked_ns.sum(), locked_total);

  core::Dataset d;
  for (int i = 0; i < 20; ++i) {
    d.push_back(tuple({static_cast<bgp::Asn>(1 + i % 5), static_cast<bgp::Asn>(100 + i)}));
  }
  const auto accepted = engine.ingest(d).accepted;
  (void)engine.snapshot();
  EXPECT_EQ(m.snapshot_sweeps.value() - sweeps, 1u);
  EXPECT_EQ(m.snapshot_cache_hits.value() - hits, 0u);
  EXPECT_EQ(m.index_deltas_applied.value() - deltas, accepted)
      << "first snapshot applies every add";
  const auto locked_last = static_cast<std::uint64_t>(m.snapshot_locked_last_ns.value());
  EXPECT_GT(locked_last, 0u);
  EXPECT_EQ(m.snapshot_locked_ns.sum() - locked_total, locked_last);

  (void)engine.snapshot();  // unchanged engine: cache hit, no locked phase
  EXPECT_EQ(m.snapshot_sweeps.value() - sweeps, 1u);
  EXPECT_EQ(m.snapshot_cache_hits.value() - hits, 1u);

  engine.advance_epoch();  // evicts everything (window 1, no new input)
  (void)engine.snapshot();
  EXPECT_EQ(m.snapshot_sweeps.value() - sweeps, 2u);
  EXPECT_EQ(m.index_deltas_applied.value() - deltas, 2 * accepted)
      << "evictions are deltas too";
  EXPECT_EQ(m.snapshot_locked_ns.sum() - locked_total,
            locked_last + static_cast<std::uint64_t>(m.snapshot_locked_last_ns.value()));
}

TEST(StreamEngine, EvictDurationObservedOncePerEvictingAdvance) {
  auto& m = obs::metrics();
  const auto observed = m.stream_evict_ns.count();
  StreamEngine windowed({.shards = 2, .window_epochs = 2});
  StreamEngine unbounded({.shards = 2, .window_epochs = 0});
  (void)windowed.ingest({tuple({1, 2}), tuple({3, 4})});
  (void)unbounded.ingest({tuple({1, 2}), tuple({3, 4})});

  windowed.advance_epoch();  // epoch 1 < window: no eviction runs
  EXPECT_EQ(m.stream_evict_ns.count() - observed, 0u);
  windowed.advance_epoch();  // epoch 2: evicts the epoch-0 tuples
  EXPECT_EQ(m.stream_evict_ns.count() - observed, 1u);
  windowed.advance_epoch();  // epoch 3: runs again, with nothing left to evict
  EXPECT_EQ(m.stream_evict_ns.count() - observed, 2u);
  EXPECT_EQ(windowed.evicted_total(), 2u);

  for (int i = 0; i < 5; ++i) unbounded.advance_epoch();
  EXPECT_EQ(m.stream_evict_ns.count() - observed, 2u) << "window 0 never evicts";
}

TEST(StreamEngine, IngestRacingEvictionAndSnapshotsStaysInWindow) {
  // Two ingest threads offer overlapping tuples while a third advances the
  // epoch under a 2-epoch window and a fourth takes snapshots, so refreshes
  // relink shard recency lists while evictions pop them. Afterwards every
  // live tuple must be inside the window and the snapshot must equal a
  // batch run over the live set.
  constexpr std::uint64_t kWindow = 2;
  constexpr int kRounds = 150;
  StreamEngine engine({.shards = 4, .window_epochs = kWindow});
  core::Dataset universe;
  for (int i = 0; i < 240; ++i) {
    universe.push_back(tuple({static_cast<bgp::Asn>(1 + i % 13), static_cast<bgp::Asn>(40 + i % 7),
                              static_cast<bgp::Asn>(100 + i)},
                             {bgp::CommunityValue::regular(
                                 static_cast<std::uint16_t>(1 + i % 13), 1)}));
  }

  // Pacing, so the threads interleave whatever the scheduler does: an
  // ingester runs at most four rounds per epoch, and the advancer advances
  // only after some ingester has finished a round since its last advance.
  std::atomic<int> rounds_done{0};
  std::atomic<int> ingesting{2};
  const auto ingester = [&](std::size_t offset) {
    for (int round = 0; round < kRounds; ++round) {
      while (engine.epoch() < static_cast<Epoch>(round / 4)) std::this_thread::yield();
      core::Dataset batch;
      for (std::size_t i = 0; i < 16; ++i) {
        batch.push_back(universe[(offset + static_cast<std::size_t>(round) * 16 + i * 3) %
                                 universe.size()]);
      }
      (void)engine.ingest(std::move(batch));
      rounds_done.fetch_add(1);
    }
    ingesting.fetch_sub(1);
  };
  {
    std::vector<std::jthread> threads;
    threads.emplace_back(ingester, 0);
    threads.emplace_back(ingester, 8);  // overlaps the first thread's tuples
    threads.emplace_back([&] {
      int seen = 0;
      while (ingesting.load() != 0) {
        const int done = rounds_done.load();
        if (done == seen) {
          std::this_thread::yield();
          continue;
        }
        seen = done;
        engine.advance_epoch();
      }
    });
    threads.emplace_back([&] {
      while (ingesting.load() != 0) (void)engine.snapshot();
    });
  }

  const auto state = engine.checkpoint_state().state;
  const Epoch epoch = engine.epoch();
  const Epoch min_epoch = epoch >= kWindow ? epoch - kWindow + 1 : 0;
  core::Dataset live;
  for (const auto& shard : state.shards) {
    for (const auto& stored : shard.tuples) {
      EXPECT_GE(stored.last_seen, min_epoch);
      EXPECT_LE(stored.last_seen, epoch);
      live.push_back(stored.tuple);
    }
  }
  EXPECT_EQ(live.size(), engine.live_tuples());
  core::deduplicate(live);
  EXPECT_EQ(live.size(), engine.live_tuples());
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(live));
}

TEST(StreamEngine, JournalOverflowFallsBackToOneRebuild) {
  // A cap smaller than the batch: the journal overflows before the first
  // snapshot, which must rebuild from shard state (counted in
  // bgpcu_index_rebuilds_total), still produce the exact result, and resume
  // incremental maintenance afterwards.
  auto& m = obs::metrics();
  const auto rebuilds = m.index_rebuilds.value();
  StreamConfig config;
  config.shards = 2;
  config.journal_cap = 4;
  StreamEngine engine(config);

  core::Dataset d;
  for (int i = 0; i < 30; ++i) {
    d.push_back(tuple({static_cast<bgp::Asn>(1 + i % 5), static_cast<bgp::Asn>(100 + i)},
                      {bgp::CommunityValue::regular(static_cast<std::uint16_t>(1 + i % 5), 1)}));
  }
  (void)engine.ingest(d);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(d));
  const auto rebuilt = m.index_rebuilds.value() - rebuilds;
  EXPECT_GE(rebuilt, 1u);

  // A small follow-up batch fits the journal: no further rebuild.
  core::Dataset more;
  more.push_back(tuple({7, 300}));
  (void)engine.ingest(more);
  auto merged = d;
  merged.push_back(tuple({7, 300}));
  core::deduplicate(merged);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(merged));
  EXPECT_EQ(m.index_rebuilds.value() - rebuilds, rebuilt);
}

TEST(StreamEngine, NonIncrementalFallbackKeepsMaintenanceCountersAtZero) {
  auto& m = obs::metrics();
  const auto sweeps = m.snapshot_sweeps.value();
  const auto deltas = m.index_deltas_applied.value();
  const auto rebuilds = m.index_rebuilds.value();
  StreamConfig config;
  config.shards = 2;
  config.incremental_index = false;
  StreamEngine engine(config);
  core::Dataset d;
  d.push_back(tuple({1, 2, 3}, {bgp::CommunityValue::regular(1, 1)}));
  d.push_back(tuple({4, 5}));
  (void)engine.ingest(d);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(d));
  EXPECT_EQ(m.snapshot_sweeps.value() - sweeps, 1u);
  EXPECT_EQ(m.index_deltas_applied.value() - deltas, 0u);
  EXPECT_EQ(m.index_rebuilds.value() - rebuilds, 0u);
  EXPECT_GT(m.snapshot_locked_last_ns.value(), 0) << "the rebuild collect is still timed";
}

TEST(StreamEngine, SingleShardDegenerateStillCorrect) {
  StreamEngine engine({.shards = 1});
  core::Dataset d{tuple({1, 2, 3}, {bgp::CommunityValue::regular(1, 1)}), tuple({2, 3})};
  (void)engine.ingest(d);
  auto expected = d;
  core::deduplicate(expected);
  expect_equal(*engine.snapshot(), core::ColumnEngine().run(expected));
}

TEST(StreamEngine, ThresholdsPropagateToSnapshot) {
  StreamConfig config;
  config.engine.thresholds = core::Thresholds::uniform(0.75);
  StreamEngine engine(config);
  (void)engine.ingest({tuple({1, 2})});
  EXPECT_DOUBLE_EQ(engine.snapshot()->thresholds().tagger, 0.75);
}

}  // namespace
}  // namespace bgpcu::stream
