// The kill -9 crash matrix: a forked child runs the real daemon epoch loop
// against a store directory with an IO hook that SIGKILLs the process at the
// Nth physical operation (write / fsync / rename). Kill points sampled
// across the whole run land mid-WAL-append, mid-checkpoint (inside the
// tmp-file writes, between rename and manifest, during the manifest's own
// rename), and mid-segment-rotation. The parent then recovers the directory
// in-process and requires the recovered snapshot to be bit-identical to the
// uninterrupted oracle AT THE RECOVERED EPOCH — durability may lose the tail
// the crash interrupted, but never corrupt or invent state.
//
// A second set runs the disk-full matrix in-process: the hook starts
// failing (as ENOSPC) at the Nth op, the store must degrade — not throw —
// while the service keeps serving, and the directory must still recover to
// a valid prefix afterwards.
//
// Everything runs with engine.threads = 1: worker threads would not survive
// fork, and replay determinism is the whole point.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/service.h"
#include "store/io.h"
#include "store/store.h"
#include "store_test_util.h"
#include "topology/rng.h"

namespace bgpcu::store {
namespace {

using testutil::TempDir;

constexpr std::uint64_t kSeed = 20210519;  // the paper's collection day
constexpr std::size_t kEpochs = 8;

struct HookGuard {
  ~HookGuard() { io::set_write_hook({}); }
};

std::vector<core::Dataset> scenario_batches() {
  topology::Rng rng(kSeed);
  std::vector<core::Dataset> batches;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    batches.push_back(testutil::random_dataset(rng, 30 + rng.below(30)));
  }
  return batches;
}

StoreConfig store_config(const std::string& dir) {
  StoreConfig config;
  config.dir = dir;
  config.sync = SyncPolicy::kEpoch;
  config.checkpoint_every_epochs = 3;  // several checkpoints inside the run
  return config;
}

/// The daemon epoch loop the whole matrix exercises.
void drive(api::Service& service, Store& store,
           const std::vector<core::Dataset>& batches) {
  for (std::size_t e = 0; e < batches.size(); ++e) {
    if (e > 0) service.advance_epoch();
    store.append_epoch_batch(service.epoch(), batches[e], testutil::marks_at(e));
    service.ingest(batches[e]);
    store.append_epoch_delta(service.publish());
    store.maybe_checkpoint(service);
  }
}

/// Oracle counter maps per epoch: oracle[e] is the state after ingesting
/// batches 0..e. Recovery at resume epoch R must equal oracle[R] exactly.
std::vector<core::CounterMap> oracle_maps(const std::vector<core::Dataset>& batches) {
  std::vector<core::CounterMap> maps;
  api::Service oracle(testutil::test_service_config());
  for (std::size_t e = 0; e < batches.size(); ++e) {
    if (e > 0) oracle.advance_epoch();
    oracle.ingest(batches[e]);
    maps.push_back(oracle.snapshot()->counter_map());  // never published: the live cut
  }
  return maps;
}

/// Counts the physical ops of one uninterrupted run (in a scratch dir), so
/// kill points can be sampled across the whole op range.
std::uint64_t count_total_ops(const std::vector<core::Dataset>& batches) {
  TempDir scratch("matrix_count");
  std::uint64_t ops = 0;
  HookGuard guard;
  io::set_write_hook([&ops](const char*) {
    ++ops;
    return true;
  });
  api::Service service(testutil::test_service_config());
  Store store(store_config(scratch.str()));
  drive(service, store, batches);
  return ops;
}

/// Forks a child that SIGKILLs itself at physical op `kill_at`; returns true
/// when the child died by SIGKILL, false when it finished the run first.
bool run_victim(const std::string& dir, const std::vector<core::Dataset>& batches,
                std::uint64_t kill_at) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: no gtest machinery, no exceptions escaping, _exit only.
    std::uint64_t ops = 0;
    io::set_write_hook([&ops, kill_at](const char*) {
      if (++ops == kill_at) raise(SIGKILL);
      return true;
    });
    api::Service service(testutil::test_service_config());
    Store store(store_config(dir));
    drive(service, store, batches);
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    return true;
  }
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return false;
}

TEST(CrashMatrix, SigkillAtSampledOpsRecoversToAnExactPrefix) {
  const auto batches = scenario_batches();
  const auto total_ops = count_total_ops(batches);
  ASSERT_GT(total_ops, 20u) << "the run must span enough ops to sample";
  const auto oracle = oracle_maps(batches);

  // ~16 kill points spread over the op range (plus the very first and very
  // last op) cover WAL appends, epoch fsyncs, checkpoint tmp writes, and
  // the manifest rename, wherever they happen to fall.
  std::vector<std::uint64_t> kill_points = {1, total_ops};
  for (std::uint64_t k = total_ops / 16; k < total_ops; k += std::max<std::uint64_t>(
           1, total_ops / 16)) {
    kill_points.push_back(k);
  }

  for (const auto kill_at : kill_points) {
    TempDir dir("matrix_kill");
    const bool killed = run_victim(dir.str(), batches, kill_at);
    EXPECT_TRUE(killed || kill_at >= total_ops) << "kill op " << kill_at;

    api::Service service(testutil::test_service_config());
    Store store(store_config(dir.str()));
    RecoveryStats rec;
    ASSERT_NO_THROW(rec = store.recover(service)) << "kill op " << kill_at;
    if (!rec.recovered) {
      // Died before anything became durable — only possible at the earliest
      // kill points.
      EXPECT_LE(kill_at, 4u) << "kill op " << kill_at;
      continue;
    }
    ASSERT_LT(rec.resume_epoch, kEpochs) << "kill op " << kill_at;
    const auto recovered =
        service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map();
    EXPECT_EQ(recovered, oracle[rec.resume_epoch])
        << "kill op " << kill_at << ": recovered state must be bit-identical to the "
        << "uninterrupted run at epoch " << rec.resume_epoch;
  }
}

TEST(CrashMatrix, DiskFullMidRunDegradesAndTheDirectoryStaysRecoverable) {
  const auto batches = scenario_batches();
  const auto total_ops = count_total_ops(batches);
  const auto oracle = oracle_maps(batches);

  for (const auto fail_from : {std::uint64_t{1}, total_ops / 3, total_ops / 2}) {
    TempDir dir("matrix_enospc");
    {
      HookGuard guard;
      std::uint64_t ops = 0;
      io::set_write_hook([&ops, fail_from](const char*) { return ++ops < fail_from; });
      api::Service service(testutil::test_service_config());
      Store store(store_config(dir.str()));
      ASSERT_NO_THROW(drive(service, store, batches)) << "fail from op " << fail_from;
      EXPECT_TRUE(store.degraded());
      // The service itself kept ingesting in memory through the full run.
      EXPECT_EQ(service.epoch(), kEpochs - 1);
      EXPECT_EQ(service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map(),
                oracle.back());
    }

    // The disk "comes back": whatever landed before the failure must still
    // recover to an exact prefix of the run.
    api::Service service(testutil::test_service_config());
    Store store(store_config(dir.str()));
    RecoveryStats rec;
    ASSERT_NO_THROW(rec = store.recover(service)) << "fail from op " << fail_from;
    if (rec.recovered) {
      ASSERT_LT(rec.resume_epoch, kEpochs);
      EXPECT_EQ(service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map(),
                oracle[rec.resume_epoch])
          << "fail from op " << fail_from;
    }
  }
}

TEST(CrashMatrix, FsyncOnlyFailureLosesNoAcknowledgedData) {
  const auto batches = scenario_batches();
  const auto oracle = oracle_maps(batches);
  TempDir dir("matrix_fsync");
  {
    HookGuard guard;
    // Let the first segment's creation (header write + directory fsync)
    // through, then fail every later fsync: appends keep succeeding, the
    // per-epoch durability point and every checkpoint commit fail.
    std::uint64_t ops = 0;
    io::set_write_hook([&ops](const char* op) {
      ++ops;
      return std::string_view(op) != "fsync" || ops <= 2;
    });
    api::Service service(testutil::test_service_config());
    Store store(store_config(dir.str()));
    drive(service, store, batches);
    EXPECT_TRUE(store.degraded()) << "kEpoch sync policy must notice fsync failures";
  }
  // Without a real power cut, every written byte is still in the page cache:
  // recovery sees the full run even though fsync never succeeded.
  api::Service service(testutil::test_service_config());
  Store store(store_config(dir.str()));
  const auto rec = store.recover(service);
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map(),
            oracle[rec.resume_epoch]);
}

}  // namespace
}  // namespace bgpcu::store
