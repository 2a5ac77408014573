// lifecycle: the daemon's cold start, trickles of live epochs, and crash
// restarts, in a closed loop with no network. It drives the bulk paths the
// live workload never takes: the first journal drain of a whole day's tuples
// into the incremental index, a multi-MB WAL record, checkpoint writes, and
// checkpoint plus WAL-tail replay. Each rep:
//
//   (a) cold start (setup): fresh data dir, empty engine; one poll over the
//       whole day-0 archive, then WAL, ingest, snapshot, publish, and an
//       explicit checkpoint. The answer must equal the batch classification
//       of the same files (streaming == batch).
//   then three cycles of
//   (b) twelve trickle epochs (primary), one new update file each, no
//       checkpoint: the per-epoch service time with nothing queued;
//   (c) a crash (secondary): drop the service and store without a shutdown
//       checkpoint, then time a fresh store open + recover + feed resume +
//       snapshot. The recovered answer and feed offsets must equal the ones
//       before the crash (recovered == uninterrupted). An untimed checkpoint
//       follows, so every recovery replays the same twelve-epoch WAL tail.
//
// The trickle files are the largest update dumps of the archive's update
// days — the full-feed collectors — so every epoch does comparable work, and
// a run rotates through many of them rather than the same twelve.
#include <malloc.h>

#include <algorithm>
#include <filesystem>

#include "archive.h"
#include "collector/extract.h"
#include "core/engine.h"
#include "daemon.h"
#include "layers.h"
#include "mrt/reader.h"
#include "workloads.h"

namespace bgpcu::benchpipe {

namespace fs = std::filesystem;

namespace {

constexpr int kWarmupReps = 2;
constexpr int kMinReps = 3;
constexpr std::size_t kTrickleEpochs = 12;
constexpr std::size_t kCycles = 3;
/// Trickle files drawn from the update days, largest first.
constexpr std::size_t kTricklePool = 48;

core::CounterMap batch_counters(const std::vector<std::string>& files,
                                const registry::AllocationRegistry& reg) {
  collector::DatasetBuilder builder(reg);
  for (const auto& path : files) builder.add_dump(mrt::load_file(path));
  return core::ColumnEngine().run(builder.finish().dataset).counter_map();
}

core::CounterMap snapshot_counters(Daemon& daemon) {
  return daemon.service().query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map();
}

}  // namespace

WorkloadResult run_lifecycle(const RunOptions& options) {
  WorkloadResult result;
  const auto reg = registry::allow_all();
  const auto day0 = list_mrt(day_dir(options.archive, 0));
  std::vector<std::string> pool;
  for (std::uint32_t d = 1; d <= live_days(options.archive); ++d) {
    for (auto& f : list_mrt(day_dir(options.archive, d))) pool.push_back(std::move(f));
  }
  if (pool.size() < kTrickleEpochs) {
    result.fail("archive has fewer than 12 update files after day 0");
    return result;
  }
  std::stable_sort(pool.begin(), pool.end(), [](const auto& a, const auto& b) {
    return fs::file_size(a) > fs::file_size(b);
  });
  pool.resize(std::min(pool.size(), kTricklePool));
  const auto batch = batch_counters(day0, reg);
  Tracer tracer(options.traced, 1 << 16);

  HostSpeed host;
  std::vector<TimedSample> primary_ms, secondary_ms, setup_s;
  double batches_replayed = 0, images_loaded = 0;
  std::uint64_t sanitizer_in = 0, sanitizer_out = 0, decode_errors = 0;
  RegistryCounts timed_before;
  Clock::time_point timed_start;
  // Resident set with a day's state loaded: after every cold start and
  // every recovery. Sampled over time instead, it would weight each phase by
  // its duration, which the host's speed moves.
  std::vector<double> rss_mb;

  for (int rep = 0;; ++rep) {
    const bool timed = rep >= kWarmupReps;
    if (rep == kWarmupReps) {
      timed_start = Clock::now();
      timed_before = RegistryCounts::read();
    }
    if (timed && rep >= kWarmupReps + kMinReps &&
        ms_between(timed_start, Clock::now()) >= options.seconds * 1e3) {
      break;
    }
    ++result.attempted;
    const auto rep_dir = fs::path(options.work_dir) / ("rep-" + std::to_string(rep));
    const auto watch = (rep_dir / "watch").string();
    const auto data = (rep_dir / "data").string();
    fs::create_directories(watch);
    for (const auto& file : day0) link_or_copy(file, (fs::path(watch) / fs::path(file).filename()).string());
    const std::size_t errors_before = result.errors.size();
    const auto fail = [&](const std::string& what) {
      result.fail("rep " + std::to_string(rep) + ": " + what);
    };

    Tracer off(false, 0);
    Tracer& tr = timed ? tracer : off;
    host.probe();
    const auto rep_start = Clock::now();
    const auto root = tr.add("rep", rep, kNoSpan, rep_start, rep_start);

    // (a) Cold start to the first durable answer.
    auto daemon = std::make_unique<Daemon>(watch, data, reg);
    const auto opened = Clock::now();
    (void)daemon->recover();
    const auto recovered = Clock::now();
    auto first = daemon->step(/*cadence_checkpoint=*/false);
    const auto checkpoint_start = Clock::now();
    const bool checkpointed = daemon->store().checkpoint(daemon->service());
    const auto cold_end = Clock::now();
    if (timed) {
      setup_s.push_back({rep_start, ms_between(rep_start, cold_end) / 1e3});
      rss_mb.push_back(resident_mb());
      sanitizer_in += first.sanitizer_in;
      sanitizer_out += first.sanitizer_out;
      decode_errors += first.decode_errors;
    }
    if (!first.ingested || first.files.size() != day0.size() || first.failed_files != 0) {
      fail("cold start did not ingest the whole archive");
    }
    if (!checkpointed) fail("checkpoint failed");
    if (snapshot_counters(*daemon) != batch) fail("cold-start answer differs from batch");
    if (tr.enabled()) {
      const auto cold = tr.add("cold_start", rep, root, rep_start, cold_end);
      tr.add("store.open", rep, cold, rep_start, opened);
      tr.add("store.recover", rep, cold, opened, recovered);
      trace_epoch(tr, first, "epoch", rep, cold);
      tr.add("store.checkpoint", rep, cold, checkpoint_start, cold_end);
    }

    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
      // (b) Trickle epochs, one update file each.
      for (std::size_t k = 0; k < kTrickleEpochs; ++k) {
        // Sets interleave the size-ordered pool, so every cycle gets the same
        // mix of file sizes and a run rotates through all of them.
        const std::size_t sets = pool.size() / kTrickleEpochs;
        const std::size_t set = (static_cast<std::size_t>(rep) * kCycles + cycle) % sets;
        const auto& source = pool[set + k * sets];
        link_or_copy(source, (fs::path(watch) / ("live." + std::to_string(cycle) + "." +
                                                 fs::path(source).filename().string()))
                                 .string());
        auto epoch = daemon->step(/*cadence_checkpoint=*/false);
        if (!epoch.ingested || epoch.files.size() != 1 || epoch.failed_files != 0) {
          fail("trickle epoch did not ingest its file");
          continue;
        }
        if (timed) {
          primary_ms.push_back({epoch.start(), ms_between(epoch.start(), epoch.end())});
          sanitizer_in += epoch.sanitizer_in;
          sanitizer_out += epoch.sanitizer_out;
          decode_errors += epoch.decode_errors;
        }
        trace_epoch(tr, epoch, "trickle_epoch", rep, root);
      }
      const auto before_crash = snapshot_counters(*daemon);
      const auto marks = daemon->feed().export_marks();

      host.probe();

      // (c) Crash: no shutdown checkpoint; a fresh process state recovers.
      daemon.reset();
      const auto restart = Clock::now();
      daemon = std::make_unique<Daemon>(watch, data, reg);
      const auto reopened = Clock::now();
      const auto stats = daemon->recover();
      const auto replayed = Clock::now();
      const auto after_crash = snapshot_counters(*daemon);
      const auto answered = Clock::now();
      if (timed) {
        secondary_ms.push_back({restart, ms_between(restart, answered)});
        rss_mb.push_back(resident_mb());
        batches_replayed += static_cast<double>(stats.batches_replayed);
        images_loaded += stats.index_image_loaded ? 1 : 0;
      }
      if (!stats.recovered || after_crash != before_crash) {
        fail("recovered answer differs from the uninterrupted one");
      }
      if (daemon->feed().export_marks() != marks) fail("recovered feed offsets differ");
      host.probe();
      const auto checkpoint_start = Clock::now();
      if (!daemon->store().checkpoint(daemon->service())) fail("checkpoint failed");
      if (tr.enabled()) {
        const auto rec = tr.add("recover", rep, root, restart, answered);
        tr.add("store.open", rep, rec, restart, reopened);
        tr.add("store.recover", rep, rec, reopened, replayed);
        tr.add("api.snapshot", rep, rec, replayed, answered);
        tr.add("store.checkpoint", rep, root, checkpoint_start, Clock::now());
      }
    }
    daemon.reset();
    tr.end(root);
    fs::remove_all(rep_dir);
    // A cold start runs in a fresh process: hand the torn-down daemon's heap
    // back to the OS, so the next cold start pays its page faults as a real
    // one does, and the resident set follows live memory rather than what
    // the allocator kept (its median read 129-158 MB between runs without).
    malloc_trim(0);
    if (result.errors.size() != errors_before) ++result.failed;
  }

  result.readings = {{"reps", static_cast<double>(setup_s.size())},
                     {"trickle_samples", static_cast<double>(primary_ms.size())},
                     {"trace_dropped", static_cast<double>(tracer.dropped())}};
  result.end_to_end =
      end_to_end_metrics(host, primary_ms, secondary_ms, setup_s, rss_mb, result.readings);
  if (options.traced) {
    LayerInputs in;
    in.spans = tracer.spans();
    in.roots = {"rep"};
    in.traced_primary_p50_ms = result.end_to_end.front().value;
    in.registry = RegistryCounts::read().minus(timed_before);
    in.kept_ratio = sanitizer_in ? static_cast<double>(sanitizer_out) / sanitizer_in : 0;
    in.decode_errors = static_cast<double>(decode_errors);
    in.batches_replayed = batches_replayed;
    in.index_images_loaded = images_loaded;
    result.per_layer = layer_metrics(in);
    tracer.write_jsonl(options.trace_path);
  }
  return result;
}

}  // namespace bgpcu::benchpipe
