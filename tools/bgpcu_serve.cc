// bgpcu_serve — network serving daemon over the api::Service facade.
//
// Binds a TCP listener and speaks the frame protocol (docs/PROTOCOL.md):
// request/response queries (per-ASN class, bulk snapshot, live evidence,
// stats) and streaming class-change subscriptions, the operational mode
// anomaly-detection consumers of community data need. Optionally tails a
// directory of MRT dumps exactly like bgpcu_stream, so one process ingests
// the feed and serves the inferences.
//
// Usage:
//   bgpcu_serve [options] [WATCH_DIR]
//
// Serving options:
//   --host H           listen address, default 127.0.0.1
//   --port P           listen port; 0 picks an ephemeral port (default 4711)
//   --port-file F      write the actually bound port to F (for --port 0)
//   --token T          require this auth token in every client hello
//   --max-conns N      connection limit, default 64
//   --timeout MS       handshake deadline for a client's first frame
//                      (default 5000; 0 disables)
//   --io-threads N     event-loop threads multiplexing connections (default
//                      1; connections are assigned round-robin)
//   --workers N        worker threads dispatching decoded frames off the IO
//                      loops (default 1; 0 dispatches inline on the loop)
//
// Overload-protection options (docs/RELIABILITY.md):
//   --keepalive MS     probe idle connections with kPing every MS
//                      (default 15000; 0 disables probing)
//   --max-rps N        per-connection request admission rate; over-budget
//                      requests are shed with busy/retry-after (default 0 =
//                      unlimited)
//   --retry-after MS   retry hint carried in busy sheds (default 1000)
//
// Observability options (docs/OBSERVABILITY.md):
//   --metrics-port P       serve GET /metrics (Prometheus text), /metrics.json
//                          and /healthz on this port; 0 picks ephemeral
//   --metrics-port-file F  write the bound metrics port to F (for port 0)
//   --metrics-dump F,SEC   append one JSON metrics line to F every SEC seconds
//   --log-level L          error|warn|info|debug (default info)
//
// Ingest options (all as in bgpcu_stream; WATCH_DIR optional — without it
// the daemon serves an initially empty engine):
//   --threshold P --allocations F --shards N --window W --extension .EXT
//   --settle SEC --interval SEC
//
// Persistence options (docs/PERSISTENCE.md):
//   --data-dir D           durable store directory: WAL + checkpoints. On
//                          start the daemon recovers the newest checkpoint,
//                          replays the WAL tail, and resumes the feed at the
//                          recorded file offsets. Enables `history` queries.
//   --checkpoint-every N   checkpoint cadence in epochs (default 16; 0 =
//                          only the final shutdown checkpoint)
//   --checkpoint-interval SEC  also checkpoint once SEC seconds have passed
//                          since the last one and durable state is pending —
//                          whichever cadence fires first wins. Protects
//                          quiet feeds whose epoch trickle never reaches
//                          --checkpoint-every (default 0 = disabled)
//   --store-sync MODE      WAL fsync policy: none|epoch|always (default epoch)
//
// SIGINT/SIGTERM shut the daemon down cleanly (exit code 0), flushing a
// final checkpoint (with --data-dir) and a final metrics sample (with
// --metrics-dump) first.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "api/service.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/http.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/render.h"
#include "registry/registry.h"
#include "store/store.h"
#include "stream/feed.h"
#include "util/cli.h"

namespace {

using namespace bgpcu;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--host H] [--port P] [--port-file F] [--token T] [--max-conns N]"
               " [--timeout MS] [--io-threads N] [--workers N]"
               " [--keepalive MS] [--max-rps N] [--retry-after MS]"
               " [--metrics-port P] [--metrics-port-file F] [--metrics-dump F,SEC]"
               " [--log-level error|warn|info|debug]"
               " [--data-dir D] [--checkpoint-every N] [--checkpoint-interval SEC]"
               " [--store-sync none|epoch|always]"
               " [--threshold P] [--allocations F] [--shards N] [--window W]"
               " [--extension .EXT] [--settle SEC] [--interval SEC] [WATCH_DIR]\n";
  return 2;
}

using util::parse_threshold_or_exit;
using util::parse_u64_or_exit;

/// Sleeps up to `seconds`, returning early (false) once shutdown is asked.
bool interruptible_sleep(unsigned seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (g_stop.load()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return !g_stop.load();
}

/// Holds the background metrics-dump thread. Joining in the destructor (after
/// asking for stop) keeps an exception thrown later in startup — feed or
/// server construction — from destroying a joinable std::thread, which would
/// terminate the process instead of reporting the error.
struct JoiningThread {
  std::thread thread;
  ~JoiningThread() {
    if (thread.joinable()) {
      g_stop.store(true);
      thread.join();
    }
  }
};

/// Write-then-rename so a reader polling for the port can never observe an
/// empty or half-written file: rename() is atomic on POSIX, and the temp name
/// lives in the same directory so it cannot cross a filesystem boundary.
void write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << port << "\n";
    out.flush();
    if (!out) throw std::runtime_error("cannot write port file: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("cannot move port file into place: " + path + ": " +
                             ec.message());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 4711;
  std::string port_file;
  int metrics_port = -1;  ///< -1 = no metrics endpoint; 0 = ephemeral.
  std::string metrics_port_file;
  std::string metrics_dump_path;
  unsigned metrics_dump_sec = 0;
  std::string watch_dir;
  std::string allocations_path;
  std::string extension;
  double threshold = 0.99;
  std::uint32_t settle_sec = 0;
  unsigned interval_sec = 5;
  api::ServiceConfig config;
  net::ServerConfig server_config;
  store::StoreConfig store_config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      const auto value = parse_u64_or_exit(arg, next());
      if (value > 0xFFFF) {
        std::cerr << "--port must be <= 65535\n";
        return 2;
      }
      port = static_cast<std::uint16_t>(value);
    } else if (arg == "--port-file") {
      port_file = next();
    } else if (arg == "--metrics-port") {
      const auto value = parse_u64_or_exit(arg, next());
      if (value > 0xFFFF) {
        std::cerr << "--metrics-port must be <= 65535\n";
        return 2;
      }
      metrics_port = static_cast<int>(value);
    } else if (arg == "--metrics-port-file") {
      metrics_port_file = next();
    } else if (arg == "--metrics-dump") {
      // F,SEC — the interval is everything after the *last* comma, so a
      // path containing commas still parses.
      const std::string spec = next();
      const auto comma = spec.rfind(',');
      if (comma == std::string::npos || comma == 0 || comma + 1 == spec.size()) {
        std::cerr << "--metrics-dump needs FILE,SECONDS, got '" << spec << "'\n";
        return 2;
      }
      metrics_dump_path = spec.substr(0, comma);
      const auto seconds = parse_u64_or_exit("--metrics-dump interval", spec.substr(comma + 1));
      if (seconds == 0) {
        std::cerr << "--metrics-dump interval must be >= 1 second\n";
        return 2;
      }
      metrics_dump_sec = static_cast<unsigned>(seconds);
    } else if (arg == "--log-level") {
      const std::string name = next();
      const auto level = obs::parse_log_level(name);
      if (!level) {
        std::cerr << "--log-level must be error|warn|info|debug, got '" << name << "'\n";
        return 2;
      }
      obs::set_log_level(*level);
    } else if (arg == "--data-dir") {
      store_config.dir = next();
    } else if (arg == "--checkpoint-every") {
      store_config.checkpoint_every_epochs = parse_u64_or_exit(arg, next());
    } else if (arg == "--checkpoint-interval") {
      store_config.checkpoint_interval_sec = parse_u64_or_exit(arg, next());
    } else if (arg == "--store-sync") {
      const std::string mode = next();
      if (mode == "none") {
        store_config.sync = store::SyncPolicy::kNone;
      } else if (mode == "epoch") {
        store_config.sync = store::SyncPolicy::kEpoch;
      } else if (mode == "always") {
        store_config.sync = store::SyncPolicy::kAlways;
      } else {
        std::cerr << "--store-sync must be none|epoch|always, got '" << mode << "'\n";
        return 2;
      }
    } else if (arg == "--token") {
      server_config.auth_token = next();
    } else if (arg == "--max-conns") {
      server_config.max_connections = static_cast<std::size_t>(parse_u64_or_exit(arg, next()));
      if (server_config.max_connections == 0) {
        std::cerr << "--max-conns must be >= 1\n";
        return 2;
      }
    } else if (arg == "--timeout") {
      server_config.hello_timeout_ms =
          static_cast<std::uint32_t>(parse_u64_or_exit(arg, next()));
    } else if (arg == "--io-threads") {
      server_config.io_threads = static_cast<std::size_t>(parse_u64_or_exit(arg, next()));
      if (server_config.io_threads == 0) {
        std::cerr << "--io-threads must be >= 1\n";
        return 2;
      }
    } else if (arg == "--workers") {
      server_config.worker_threads =
          static_cast<std::size_t>(parse_u64_or_exit(arg, next()));
    } else if (arg == "--keepalive") {
      server_config.keepalive_interval_ms =
          static_cast<std::uint32_t>(parse_u64_or_exit(arg, next()));
    } else if (arg == "--max-rps") {
      server_config.max_requests_per_sec =
          static_cast<std::uint32_t>(parse_u64_or_exit(arg, next()));
    } else if (arg == "--retry-after") {
      server_config.busy_retry_after_ms =
          static_cast<std::uint32_t>(parse_u64_or_exit(arg, next()));
    } else if (arg == "--threshold") {
      threshold = parse_threshold_or_exit(next());
    } else if (arg == "--allocations") {
      allocations_path = next();
    } else if (arg == "--shards") {
      config.stream.shards = static_cast<std::size_t>(parse_u64_or_exit(arg, next()));
      if (config.stream.shards == 0) {
        std::cerr << "--shards must be >= 1\n";
        return 2;
      }
    } else if (arg == "--window") {
      config.stream.window_epochs = parse_u64_or_exit(arg, next());
    } else if (arg == "--extension") {
      extension = next();
    } else if (arg == "--settle") {
      settle_sec = static_cast<std::uint32_t>(parse_u64_or_exit(arg, next()));
    } else if (arg == "--interval") {
      interval_sec = static_cast<unsigned>(parse_u64_or_exit(arg, next()));
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    } else if (watch_dir.empty()) {
      watch_dir = arg;
    } else {
      std::cerr << "only one WATCH_DIR expected\n";
      return usage(argv[0]);
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    const auto reg = allocations_path.empty() ? registry::allow_all()
                                              : registry::load_allocations(allocations_path);
    config.stream.engine.thresholds = core::Thresholds::uniform(threshold);
    api::Service service(config);

    // Recover durable state before the listener exists: no client can
    // observe a half-replayed engine.
    std::optional<store::Store> store;
    store::RecoveryStats recovery;
    if (!store_config.dir.empty()) {
      store.emplace(store_config);
      recovery = store->recover(service);
      if (recovery.recovered) {
        std::cerr << "recovered epoch " << recovery.resume_epoch << " from "
                  << store_config.dir << " (" << recovery.batches_replayed
                  << " batch(es) replayed, " << recovery.duration_ms << " ms)\n";
      }
      service.set_history_provider(
          [&store](bgp::Asn asn) { return store->history(asn); });
    }

    auto listener = std::make_shared<net::TcpListener>(host, port);
    std::cerr << "listening on " << listener->name() << "\n";
    obs::log_info("listening", {{"addr", listener->name()}});
    if (!port_file.empty()) write_port_file(port_file, listener->port());

    std::optional<obs::MetricsHttpServer> metrics_http;
    if (metrics_port >= 0) {
      metrics_http.emplace(host, static_cast<std::uint16_t>(metrics_port),
                           obs::Registry::global());
      obs::log_info("metrics_listening",
                    {{"host", host}, {"port", std::to_string(metrics_http->port())}});
      if (!metrics_port_file.empty()) {
        write_port_file(metrics_port_file, metrics_http->port());
      }
    }

    JoiningThread dump_thread;
    if (!metrics_dump_path.empty()) {
      dump_thread.thread = std::thread([path = metrics_dump_path, sec = metrics_dump_sec] {
        std::ofstream out(path, std::ios::app);
        if (!out) {
          obs::log_error("metrics_dump_open_failed", {{"path", path}});
          return;
        }
        // One JSON object per line (JSONL), flushed per sample so a tail -f
        // or a crashed process's last sample is always complete.
        while (!g_stop.load()) {
          out << obs::render_json(obs::Registry::global().collect(),
                                  static_cast<std::int64_t>(std::time(nullptr)))
              << "\n";
          out.flush();
          if (!interruptible_sleep(sec)) break;
        }
      });
      obs::log_info("metrics_dump_started",
                    {{"path", metrics_dump_path},
                     {"interval_sec", std::to_string(metrics_dump_sec)}});
    }

    net::Server server(service, listener, server_config);
    server.start();

    std::optional<stream::DirectoryFeed> feed;
    if (!watch_dir.empty()) {
      feed.emplace(watch_dir, reg, extension, settle_sec);
      // Resume reading MRT files where the durable marks left off, instead
      // of re-parsing (and re-offering) everything the WAL already replayed.
      if (!recovery.feed_marks.empty()) feed->restore_marks(recovery.feed_marks);
    }

    // A recovered engine's current epoch already holds its replayed batch;
    // the first live poll must open a new epoch, exactly as if the process
    // had never restarted.
    std::uint64_t ingest_polls = recovery.recovered ? 1 : 0;
    while (!g_stop.load()) {
      if (!feed) {
        // The time cadence must run even with nothing to ingest — that is
        // its whole point (a quiet feed leaving WAL state uncheckpointed).
        if (store) store->maybe_checkpoint(service);
        (void)interruptible_sleep(interval_sec);
        continue;
      }
      auto poll = feed->poll();
      for (const auto& path : poll.failed) {
        std::cerr << "warning: could not read " << path << " (will retry)\n";
        obs::log_warn("feed_read_failed", {{"path", path}, {"action", "will retry"}});
      }
      if (poll.empty()) {
        if (store) store->maybe_checkpoint(service);
        if (!interruptible_sleep(interval_sec)) break;
        continue;
      }
      // One epoch per ingesting poll, advanced before ingest as in
      // bgpcu_stream (keeps a --window 1 poll's own input alive).
      if (ingest_polls > 0) (void)service.advance_epoch();
      ++ingest_polls;
      // WAL the batch *before* applying it: a crash between the append and
      // the ingest replays the batch on restart, never loses it.
      if (store) {
        store->append_epoch_batch(service.epoch(), poll.batch, feed->export_marks());
      }
      const auto stats = service.ingest(std::move(poll.batch));
      const auto delta = service.publish();
      if (store) {
        store->append_epoch_delta(delta);
        store->maybe_checkpoint(service);
      }
      std::cerr << "epoch " << service.epoch() << ": " << poll.files.size()
                << " file(s), " << stats.accepted << " new tuples, " << delta.changes.size()
                << " class change(s), " << server.connection_count() << " client(s)\n";
      obs::log_debug("epoch_published",
                     {{"epoch", std::to_string(service.epoch())},
                      {"files", std::to_string(poll.files.size())},
                      {"accepted", std::to_string(stats.accepted)},
                      {"class_changes", std::to_string(delta.changes.size())},
                      {"clients", std::to_string(server.connection_count())}});
      if (!interruptible_sleep(interval_sec)) break;
    }

    obs::log_info("shutdown", {{"reason", "signal"}});
    server.stop();
    // Final checkpoint so a clean shutdown restarts with zero WAL replay.
    if (store && store->checkpoint(service)) {
      obs::log_info("final_checkpoint", {{"epoch", std::to_string(service.epoch())}});
    }
    if (dump_thread.thread.joinable()) {
      g_stop.store(true);  // already set on this path; explicit for clarity
      dump_thread.thread.join();
    }
    if (!metrics_dump_path.empty()) {
      // One last sample after everything above stopped, so the dump's final
      // line reflects the whole run (including the final checkpoint).
      std::ofstream out(metrics_dump_path, std::ios::app);
      if (out) {
        out << obs::render_json(obs::Registry::global().collect(),
                                static_cast<std::int64_t>(std::time(nullptr)))
            << "\n";
      }
    }
    if (metrics_http) metrics_http->stop();
    std::cerr << "shut down cleanly\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    obs::log_error("fatal", {{"what", e.what()}});
    return 1;
  }
}
