// bgpcu_serve's ingest loop, driven step by step so the benchmark can time
// each library call from outside: poll the watch directory, and when files
// appeared, advance the epoch, log the batch to the WAL, ingest, snapshot,
// publish, log the delta (the epoch's fsync), and optionally checkpoint on
// the store's cadence. The calls and their order are bgpcu_serve's; the
// explicit kSnapshot query before publish makes publish a cache hit, so the
// sweep and the diff are timed apart.
#ifndef BGPCU_BENCH_PIPELINE_DAEMON_H
#define BGPCU_BENCH_PIPELINE_DAEMON_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/service.h"
#include "registry/registry.h"
#include "store/store.h"
#include "stream/feed.h"
#include "trace.h"

namespace bgpcu::benchpipe {

/// Window and checkpoint cadence of the benchmarked daemon.
inline constexpr std::uint64_t kWindowEpochs = 48;
inline constexpr std::uint64_t kCheckpointEvery = 240;

/// One timed library call inside an epoch.
struct StageTime {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

/// What one loop iteration did.
struct EpochOutcome {
  bool ingested = false;  ///< False when the poll found nothing new.
  stream::Epoch epoch = 0;
  std::vector<std::string> files;
  std::size_t failed_files = 0;  ///< Files the poll could not read.
  std::uint64_t sanitizer_in = 0;
  std::uint64_t sanitizer_out = 0;
  std::uint64_t decode_errors = 0;
  api::EpochDelta delta;
  std::vector<StageTime> stages;  ///< In call order; stages[0] is the poll.
  Clock::time_point publish_end;

  [[nodiscard]] Clock::time_point start() const { return stages.front().start; }
  [[nodiscard]] Clock::time_point end() const { return stages.back().end; }
  /// Summed stage time from the poll through publish, in ms.
  [[nodiscard]] double through_publish_ms() const;
};

class Daemon {
 public:
  /// Opens (creating) `data_dir` as the store and watches `watch_dir` for
  /// `.mrt` files. `registry` must outlive the daemon.
  Daemon(const std::string& watch_dir, const std::string& data_dir,
         const registry::AllocationRegistry& registry);

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Restart path: recovers the store into the service and resumes the
  /// feed at the recorded offsets.
  store::RecoveryStats recover();

  /// One loop iteration; `cadence_checkpoint` adds maybe_checkpoint.
  EpochOutcome step(bool cadence_checkpoint);

  [[nodiscard]] api::Service& service() noexcept { return service_; }
  [[nodiscard]] store::Store& store() noexcept { return store_; }
  [[nodiscard]] stream::DirectoryFeed& feed() noexcept { return feed_; }

 private:
  api::Service service_;
  store::Store store_;
  stream::DirectoryFeed feed_;
  std::uint64_t ingest_polls_ = 0;
};

/// Records an ingesting epoch's calls as children of a `root_name` span
/// (itself a child of `parent`). No-op when the tracer is off.
void trace_epoch(Tracer& tracer, const EpochOutcome& epoch, const char* root_name,
                 std::uint64_t trace, SpanId parent = kNoSpan);

}  // namespace bgpcu::benchpipe

#endif  // BGPCU_BENCH_PIPELINE_DAEMON_H
