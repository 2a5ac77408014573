// bench_store — what durability costs and what a restart buys back:
//
//   no_store_s, wal_s      the daemon epoch loop — parse one day's MRT update
//                          dumps, sanitize, ingest, publish (exactly what
//                          bgpcu_serve does per poll) — with no store at all
//                          and with the WAL appended and fsynced per epoch,
//                          best of 3 each. One run cannot resolve a few
//                          percent between them (the host's speed drifts
//                          more than that), so no overhead ratio is derived.
//   checkpoint_mb_per_sec  write bandwidth of one full checkpoint (.state +
//                          .snap, atomic tmp+rename included)
//   recovery_ms            cold recovery of the directory — newest checkpoint
//                          plus WAL tail replay — into a fresh service, at
//                          paper scale (the IMC'21 snapshot holds ~173k
//                          tuples; the recorded live_tuples line gives this
//                          run's actual size)
//
// Every run (including --smoke) re-derives the recovered counter map and
// compares it against the live run's: any replay-vs-live divergence is a
// correctness failure, exit 1. --smoke scales the world down for CI;
// [--out FILE] records one JSON line (default BENCH_store.json).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "api/service.h"
#include "common.h"
#include "store/store.h"

namespace {

using namespace bgpcu;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// One epoch's worth of collector dumps (one buffer per collector box).
using EpochDumps = std::vector<std::vector<std::uint8_t>>;

stream::FeedMarks marks_at(std::size_t epoch) {
  return {{"updates.0001.mrt", 4096 * (epoch + 1)}};
}

api::ServiceConfig service_config() {
  api::ServiceConfig config;
  config.stream.shards = 4;
  config.stream.engine.threads = 1;  // replay determinism is the contract
  return config;
}

/// The per-poll parse path, identical to stream::Feed: every dump through
/// the extractor + sanitizer, deduplicated into one batch.
core::Dataset parse_epoch(const bench::World& world, const EpochDumps& dumps) {
  collector::DatasetBuilder builder(world.topo.registry);
  for (const auto& dump : dumps) builder.add_dump(dump);
  return builder.finish().dataset;
}

/// The daemon epoch loop, with or without a store riding along.
double run_loop(const bench::World& world, const std::vector<EpochDumps>& epoch_dumps,
                api::Service& service, store::Store* store) {
  const auto start = Clock::now();
  for (std::size_t e = 0; e < epoch_dumps.size(); ++e) {
    const auto batch = parse_epoch(world, epoch_dumps[e]);
    if (e > 0) (void)service.advance_epoch();
    if (store) store->append_epoch_batch(service.epoch(), batch, marks_at(e));
    (void)service.ingest(batch);
    const auto delta = service.publish();
    if (store) store->append_epoch_delta(delta);
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::error_code ec;
    const auto size = fs::file_size(entry.path(), ec);
    if (!ec) total += size;
  }
  return total;
}

int run(bool smoke, const std::string& out_path) {
  bench::print_banner("Durable store costs — WAL epoch loop, checkpoint bandwidth, "
                      "cold recovery",
                      "engineering (store subsystem)");

  bench::WorldParams params;
  params.num_ases = smoke ? 800 : 4000;
  params.peers = smoke ? 20 : 80;
  const std::uint32_t days = smoke ? 4 : 10;
  auto world = bench::make_world(params);

  // One day of MRT update dumps per epoch, emitted once up front (emission is
  // not part of the daemon and stays outside the timed loop). Each epoch
  // re-announces that day's churn slice under a fresh seed, so consecutive
  // frames overlap heavily — the shape the WAL sees in production.
  const collector::PathOutputs outputs(world.dataset);
  std::vector<EpochDumps> epoch_dumps(days);
  std::uint64_t dump_bytes = 0;
  for (std::uint32_t e = 0; e < days; ++e) {
    collector::EmissionConfig emission;
    emission.seed = params.seed + 1000 + e;
    emission.base_timestamp += e * emission.day_seconds;
    for (auto& emitted : collector::emit_project(world.topo, world.substrate, outputs,
                                                 world.projects[0], emission)) {
      if (emitted.update_dump.empty()) continue;
      dump_bytes += emitted.update_dump.size();
      epoch_dumps[e].push_back(std::move(emitted.update_dump));
    }
  }
  std::uint64_t total_tuples = 0;
  for (const auto& dumps : epoch_dumps) total_tuples += parse_epoch(world, dumps).size();
  std::printf("input: %u epochs, %.1f MB of MRT updates, %llu batch tuples%s\n",
              days, static_cast<double>(dump_bytes) / 1e6,
              static_cast<unsigned long long>(total_tuples),
              smoke ? " (smoke scale)" : "");

  const auto dir = (fs::temp_directory_path() /
                    ("bgpcu_bench_store_" + std::to_string(::getpid())))
                       .string();
  fs::remove_all(dir);

  // Baseline: the identical loop, no store. Best-of-3 on both sides so
  // scheduler noise cannot masquerade as WAL overhead.
  double best_base = 1e300, best_wal = 1e300;
  core::CounterMap live_map;
  std::uint64_t live_tuples = 0;
  for (int rep = 0; rep < (smoke ? 1 : 3); ++rep) {
    {
      api::Service service(service_config());
      best_base = std::min(best_base, run_loop(world, epoch_dumps, service, nullptr));
    }
    fs::remove_all(dir);
    api::Service service(service_config());
    store::Store store({.dir = dir, .sync = store::SyncPolicy::kEpoch,
                        .checkpoint_every_epochs = 0});
    best_wal = std::min(best_wal, run_loop(world, epoch_dumps, service, &store));
    live_map = service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map();
    live_tuples = service.query({.kind = api::QueryKind::kStats}).stats->live_tuples;
  }
  const double wal_mb = static_cast<double>(dir_bytes(dir)) / 1e6;
  std::printf("epoch_loop no_store %.3f s, wal %.3f s, wal size %.1f MB\n", best_base,
              best_wal, wal_mb);

  // Checkpoint bandwidth: one full checkpoint of the final state. The store
  // above went out of scope; reopen + recover, then time the checkpoint.
  double checkpoint_mb = 0, checkpoint_s = 0, recovery_ms = 0;
  std::uint64_t recovered_tuples = 0;
  bool diverged = false;
  {
    api::Service service(service_config());
    store::Store store({.dir = dir, .checkpoint_every_epochs = 0});
    (void)store.recover(service);
    const auto t0 = Clock::now();
    if (!store.checkpoint(service)) {
      std::cerr << "error: checkpoint failed\n";
      fs::remove_all(dir);
      return 1;
    }
    checkpoint_s = std::chrono::duration<double>(Clock::now() - t0).count();
    // GC pruned the dead segments, so measure the checkpoint files directly.
    checkpoint_mb = 0;
    for (const auto epoch : store.manifest().checkpoints) {
      for (const char* suffix : {".state", ".snap"}) {
        std::error_code ec;
        const auto size = fs::file_size(store::checkpoint_path(dir, epoch, suffix), ec);
        if (!ec) checkpoint_mb += static_cast<double>(size) / 1e6;
      }
    }
  }
  std::printf("checkpoint %.1f MB in %.3f s = %.1f MB/s\n", checkpoint_mb,
              checkpoint_s, checkpoint_s > 0 ? checkpoint_mb / checkpoint_s : 0.0);

  // Cold recovery into a fresh service, then the divergence gate.
  {
    api::Service service(service_config());
    store::Store store({.dir = dir});
    const auto t0 = Clock::now();
    const auto rec = store.recover(service);
    recovery_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    recovered_tuples =
        service.query({.kind = api::QueryKind::kStats}).stats->live_tuples;
    const auto recovered_map =
        service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map();
    diverged = !rec.recovered || !(recovered_map == live_map);
    std::printf("cold recovery: %.1f ms, %llu live tuples (%llu batch(es) replayed)\n",
                recovery_ms, static_cast<unsigned long long>(recovered_tuples),
                static_cast<unsigned long long>(rec.batches_replayed));
  }
  fs::remove_all(dir);

  if (diverged) {
    std::cerr << "FAIL: recovered state diverges from the live run\n";
    return 1;
  }
  std::cout << "replay-vs-live: identical (" << live_tuples << " live tuples)\n";

  char json[512];
  std::snprintf(json, sizeof json,
                "{\"bench\":\"store_durability\",\"smoke\":%s,\"epochs\":%u,"
                "\"dump_mb\":%.1f,\"tuples\":%llu,\"live_tuples\":%llu,"
                "\"no_store_s\":%.3f,\"wal_s\":%.3f,"
                "\"checkpoint_mb\":%.2f,\"checkpoint_mb_per_sec\":%.1f,"
                "\"recovery_ms\":%.1f,\"replay_divergence\":false}\n",
                smoke ? "true" : "false", days,
                static_cast<double>(dump_bytes) / 1e6,
                static_cast<unsigned long long>(total_tuples),
                static_cast<unsigned long long>(live_tuples), best_base, best_wal,
                checkpoint_mb,
                checkpoint_s > 0 ? checkpoint_mb / checkpoint_s : 0.0, recovery_ms);
  std::ofstream out(out_path, std::ios::trunc);
  out << json;
  out.flush();
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "recorded " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_store.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--smoke] [--out FILE]\n";
      return 2;
    }
  }
  return run(smoke, out_path);
}
