// bgpcu_store — offline administration of a durable store directory
// (docs/PERSISTENCE.md). Run it only while no daemon is serving from the
// directory; the store has no cross-process lock.
//
// Usage:
//   bgpcu_store inspect DIR        manifest, checkpoints, WAL segments, and
//                                  the epoch range the directory can recover
//   bgpcu_store verify DIR         full CRC walk of every file; exit 1 on
//                                  corruption. A torn tail in the *newest*
//                                  segment is a normal crash artifact and
//                                  only warns.
//   bgpcu_store compact DIR        recover the store in-process and write a
//                                  fresh checkpoint, folding the WAL tail in
//                                  and GC-ing dead segments
//   bgpcu_store history ASN DIR    one AS's class evolution from the
//                                  retained checkpoints, offline
//
// Diagnostics go to stderr; stdout carries the requested report.
// Exit codes: 0 success, 1 corruption/failure, 2 usage error.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "store/store.h"
#include "util/cli.h"

namespace {

using namespace bgpcu;
namespace fs = std::filesystem;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " inspect DIR | verify DIR | compact DIR | history ASN DIR\n";
  return 2;
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

int cmd_inspect(const std::string& dir) {
  store::Manifest manifest;
  bool manifest_ok = true;
  try {
    manifest = store::decode_manifest(store::io::read_file(store::manifest_path(dir)));
  } catch (const store::StoreError& e) {
    manifest_ok = false;
    std::cerr << "warning: manifest: " << e.what() << "\n";
  }
  std::cout << dir << ": manifest " << (manifest_ok ? "ok" : "unreadable") << ", "
            << manifest.checkpoints.size() << " checkpoint(s), wal start seq "
            << manifest.wal_start_seq << "\n";
  for (const auto epoch : manifest.checkpoints) {
    std::cout << "  checkpoint epoch " << epoch;
    for (const char* suffix : {".state", ".snap"}) {
      const auto path = store::checkpoint_path(dir, epoch, suffix);
      std::error_code ec;
      if (fs::exists(path, ec)) {
        std::cout << " " << suffix << " " << file_size_or_zero(path) << "B";
      }
    }
    std::cout << "\n";
  }
  std::uint64_t first_epoch = 0, last_epoch = 0, total_records = 0;
  bool any = false;
  for (const auto& [seq, path] : store::list_segments(dir, 0)) {
    const auto result = store::read_segment_file(path);
    std::cout << "  segment " << fs::path(path).filename().string() << ": "
              << result.records.size() << " record(s), " << file_size_or_zero(path)
              << " bytes" << (result.truncated_records != 0 ? ", TRUNCATED tail" : "")
              << (seq < manifest.wal_start_seq ? " (dead, awaiting gc)" : "") << "\n";
    total_records += result.records.size();
    for (const auto& record : result.records) {
      if (!any || record.epoch < first_epoch) first_epoch = record.epoch;
      if (!any || record.epoch > last_epoch) last_epoch = record.epoch;
      any = true;
    }
  }
  if (!manifest.checkpoints.empty()) {
    const auto base = manifest.checkpoints.back();
    if (!any || base < first_epoch) first_epoch = base;
    if (!any || base > last_epoch) last_epoch = base;
    any = true;
  }
  if (any) {
    std::cout << "  recoverable epochs " << first_epoch << ".." << last_epoch << ", "
              << total_records << " live WAL record(s)\n";
  } else {
    std::cout << "  empty store\n";
  }
  return 0;
}

int cmd_verify(const std::string& dir) {
  bool corrupt = false;
  const auto fail = [&corrupt](const std::string& what) {
    std::cerr << "CORRUPT: " << what << "\n";
    corrupt = true;
  };

  store::Manifest manifest;
  std::error_code ec;
  if (fs::exists(store::manifest_path(dir), ec)) {
    try {
      manifest = store::decode_manifest(store::io::read_file(store::manifest_path(dir)));
      std::cout << "manifest: ok\n";
    } catch (const store::StoreError& e) {
      fail(std::string("manifest: ") + e.what());
    }
  } else {
    std::cout << "manifest: absent\n";
  }

  for (const auto epoch : manifest.checkpoints) {
    const auto state_path = store::checkpoint_path(dir, epoch, ".state");
    try {
      const auto state = store::decode_state_file(store::io::read_file(state_path));
      std::size_t tuples = 0;
      for (const auto& shard : state.engine.shards) tuples += shard.tuples.size();
      std::cout << "checkpoint " << epoch << " .state: ok, " << tuples << " tuple(s)\n";
    } catch (const store::StoreError& e) {
      fail(state_path + ": " + e.what());
    }
    const auto snap_path = store::checkpoint_path(dir, epoch, ".snap");
    try {
      const auto snap = api::decode_snapshot(store::io::read_file(snap_path));
      std::cout << "checkpoint " << epoch << " .snap: ok, " << snap.counter_map().size()
                << " AS(es)\n";
    } catch (const std::exception& e) {
      fail(snap_path + ": " + e.what());
    }
  }

  const auto segments = store::list_segments(dir, 0);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& [seq, path] = segments[i];
    const auto result = store::read_segment_file(path);
    const bool last = i + 1 == segments.size();
    if (result.truncated_records == 0 && result.warnings.empty()) {
      std::cout << fs::path(path).filename().string() << ": ok, "
                << result.records.size() << " record(s)\n";
    } else if (last) {
      // The newest segment legitimately ends torn after a crash: recovery
      // truncates it, so this is a warning, not corruption.
      for (const auto& w : result.warnings) std::cerr << "warning: " << w << "\n";
      std::cout << fs::path(path).filename().string() << ": torn tail, "
                << result.records.size() << " record(s) recoverable\n";
    } else {
      for (const auto& w : result.warnings) fail(w);
      if (result.warnings.empty()) fail(path + ": truncated record(s)");
    }
  }

  if (corrupt) {
    std::cerr << "verification FAILED\n";
    return 1;
  }
  std::cout << "verification ok\n";
  return 0;
}

int cmd_compact(const std::string& dir) {
  // Build a service matching the persisted config fingerprint so replay is
  // bit-identical to the daemon that wrote the WAL, then checkpoint: the
  // fresh checkpoint absorbs the whole tail and GC empties the directory of
  // dead segments.
  api::ServiceConfig config;
  if (const auto state = store::load_newest_state(dir)) {
    config = store::service_config_from(*state);
  }
  config.stream.engine.threads = 1;
  api::Service service(config);
  store::Store st({.dir = dir});
  const auto recovery = st.recover(service);
  for (const auto& warning : recovery.warnings) {
    std::cerr << "warning: " << warning << "\n";
  }
  if (!recovery.recovered) {
    std::cout << dir << ": nothing to compact\n";
    return 0;
  }
  if (!st.checkpoint(service)) {
    std::cerr << "error: checkpoint failed (store degraded)\n";
    return 1;
  }
  std::cout << dir << ": compacted to checkpoint epoch " << service.epoch() << " ("
            << recovery.batches_replayed << " batch(es) folded in)\n";
  return 0;
}

int cmd_history(const std::string& asn_text, const std::string& dir) {
  const auto asn = util::parse_asn_or_exit(asn_text);
  const store::Store st({.dir = dir});
  for (const auto& point : st.history(asn)) {
    std::cout << "epoch " << point.epoch << " AS " << asn << " class "
              << point.usage.code() << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && (args[0] == "--help" || args[0] == "-h")) return usage(argv[0]);
  try {
    if (args.size() == 2 && args[0] == "inspect") return cmd_inspect(args[1]);
    if (args.size() == 2 && args[0] == "verify") return cmd_verify(args[1]);
    if (args.size() == 2 && args[0] == "compact") return cmd_compact(args[1]);
    if (args.size() == 3 && args[0] == "history") return cmd_history(args[1], args[2]);
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
