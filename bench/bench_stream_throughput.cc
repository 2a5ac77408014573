// Streaming ingest throughput: tuples/sec into the stream engine under
// churn-shaped input, single-shard vs. sharded, single- vs. multi-threaded.
// The sharded counter tables are the repo's first concurrent hot path; this
// bench records how ingest scales when the per-shard mutexes stop being one
// global lock. Also reports snapshot latency (cold sweep vs. cached).
//
// Scaling expectations depend on hardware: with N usable cores, 4 shards x 4
// threads should beat 1 shard x 4 threads by >= 2x (lock contention gone,
// work parallel). On a single-core container the sharded run can only
// recover the contention overhead, not parallelize — the printed
// hardware_concurrency line gives the context for the recorded ratio.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "sim/churn.h"
#include "stream/engine.h"

namespace {

using namespace bgpcu;
using Clock = std::chrono::steady_clock;

struct RunResult {
  double tuples_per_sec = 0;
  std::uint64_t tuples = 0;
};

/// Ingests `per_thread` batch lists from `threads` workers into one engine.
RunResult run_ingest(const std::vector<std::vector<core::Dataset>>& per_thread,
                     std::size_t shards) {
  stream::StreamEngine engine({.shards = shards});
  std::uint64_t total = 0;
  // ingest() consumes its batch; deep-copy the input *outside* the timed
  // region so the clock sees engine cost, not std::vector duplication.
  auto consumable = per_thread;
  for (const auto& batches : consumable) {
    for (const auto& b : batches) total += b.size();
  }

  const auto start = Clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(consumable.size());
    for (auto& batches : consumable) {
      workers.emplace_back([&engine, &batches] {
        for (auto& batch : batches) (void)engine.ingest(std::move(batch));
      });
    }
  }
  const auto elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  return {static_cast<double>(total) / elapsed, total};
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

/// The shared churn-shaped input: daily observation batches over the wild
/// dataset, re-announcements included (refresh-heavy, like real update
/// feeds), split into poll-sized ingest chunks.
std::vector<core::Dataset> make_chunks(std::uint64_t& total_tuples) {
  bench::WorldParams params;
  params.num_ases = 3000;
  params.peers = 60;
  auto world = bench::make_world(params);

  sim::ChurnConfig churn;
  constexpr std::uint32_t kDays = 12;
  constexpr std::size_t kChunk = 4096;  ///< Tuples per ingest call (one MRT poll).
  std::vector<core::Dataset> chunks;
  total_tuples = 0;
  for (const auto& day : sim::day_batches(world.dataset, churn, kDays)) {
    for (std::size_t start = 0; start < day.size(); start += kChunk) {
      chunks.emplace_back(day.begin() + static_cast<std::ptrdiff_t>(start),
                          day.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(start + kChunk, day.size())));
      total_tuples += chunks.back().size();
    }
  }
  return chunks;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::cerr << "usage: " << argv[0] << " (takes no arguments)\n";
    return 2;
  }

  bench::print_banner("Streaming ingest throughput — single-shard vs. sharded",
                      "engineering (stream subsystem)");
  std::cout << "hardware_concurrency: " << std::thread::hardware_concurrency() << "\n";

  std::uint64_t total_tuples = 0;
  const auto chunks = make_chunks(total_tuples);
  std::cout << "input: 12 churn days, " << total_tuples << " tuples in "
            << chunks.size() << " ingest chunks\n\n";

  struct Config {
    std::size_t shards;
    std::size_t threads;
  };
  // A 1-shard row precedes every thread count so each row's speedup column
  // compares against a same-thread single-shard baseline.
  const Config configs[] = {{1, 1}, {4, 1}, {1, 4}, {2, 4}, {4, 4}, {8, 4}, {1, 8}, {16, 8}};

  std::cout << "shards threads tuples_per_sec speedup_vs_1shard_same_threads\n";
  std::map<std::size_t, double> single_shard_base;  ///< threads -> tuples/sec.
  double base_4thread = 0, sharded_4thread = 0;
  for (const auto& config : configs) {
    // Round-robin the chunks across threads so every worker touches every
    // peer region (worst case for a single lock, realistic for a collector
    // fan-in).
    std::vector<std::vector<core::Dataset>> per_thread(config.threads);
    for (std::size_t d = 0; d < chunks.size(); ++d) {
      per_thread[d % config.threads].push_back(chunks[d]);
    }
    // Warm-up + best-of-3 to tame scheduler noise.
    RunResult best;
    for (int rep = 0; rep < 3; ++rep) {
      const auto result = run_ingest(per_thread, config.shards);
      if (result.tuples_per_sec > best.tuples_per_sec) best = result;
    }
    if (config.shards == 1) single_shard_base[config.threads] = best.tuples_per_sec;
    if (config.shards == 1 && config.threads == 4) base_4thread = best.tuples_per_sec;
    if (config.shards == 4 && config.threads == 4) sharded_4thread = best.tuples_per_sec;

    const double base = single_shard_base[config.threads];
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2fx", base > 0 ? best.tuples_per_sec / base : 1.0);
    std::cout << config.shards << " " << config.threads << " " << fmt(best.tuples_per_sec)
              << " " << speedup << "\n";
  }
  if (base_4thread > 0 && sharded_4thread > 0) {
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.2f", sharded_4thread / base_4thread);
    std::cout << "\nsharded_scaling (4 shards vs 1 shard, 4 threads): " << ratio << "x\n";
  }

  // Snapshot cost: cold sweep vs. cached re-read.
  stream::StreamEngine engine({.shards = 4});
  for (const auto& b : chunks) (void)engine.ingest(b);
  auto t0 = Clock::now();
  const auto snap = engine.snapshot();
  const auto cold = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  t0 = Clock::now();
  (void)engine.snapshot();
  const auto cached = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  std::cout << "\nsnapshot: " << engine.live_tuples() << " live tuples, "
            << snap->counter_map().size() << " classified ASes, cold " << cold
            << " ms, cached " << cached << " ms\n"
            << "(cached snapshots are shared handles; serial-vs-parallel sweep "
               "kernels are measured in bench_sweep)\n";
  return 0;
}
