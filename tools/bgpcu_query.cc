// bgpcu_query — inspect and query the service's snapshot/delta artifacts,
// from files or live from a bgpcu_serve daemon.
//
// File mode works on both artifact formats: the versioned binary wire format
// (api/wire.h, docs/WIRE_FORMAT.md) and the v1 text inference database;
// snapshot-consuming subcommands sniff the format from the leading bytes.
// Network mode (--connect) speaks the frame protocol (docs/PROTOCOL.md)
// through net::ResilientClient: connects retry with backoff inside a
// bounded budget (--retries, --no-retry), the TCP connect itself is
// deadlined (--timeout), and `watch` survives server restarts — it
// reconnects, resumes from the last seen epoch, and reports replay-horizon
// gaps on stderr (docs/RELIABILITY.md).
//
// Usage:
//   bgpcu_query info FILE...             identify each file: format, frame
//                                        types, record counts, sizes
//   bgpcu_query dump FILE                decode a snapshot (wire or text)
//                                        and print it as a v1 text database
//   bgpcu_query asn ASN FILE             one AS's class + counters from a
//                                        snapshot
//   bgpcu_query deltas FILE...           decode delta-batch frames and print
//                                        the class-change feed as text
//   bgpcu_query convert FORMAT IN OUT    transcode a snapshot between
//                                        'text' and 'wire'
//
// Network mode (HOST:PORT from --connect; --token T when the server
// requires auth):
//   bgpcu_query dump --connect HOST:PORT        published snapshot as a text db
//   bgpcu_query asn ASN --connect HOST:PORT     one AS's published class
//   bgpcu_query live ASN --connect HOST:PORT    real-time peer-column
//                                               evidence (no sweep)
//   bgpcu_query stats --connect HOST:PORT       service health counters
//     [--json]                                  (machine-readable JSON object)
//   bgpcu_query metrics --connect HOST:PORT     full observability scrape
//     [--json]                                  (Prometheus text, or JSON)
//   bgpcu_query history ASN --connect HOST:PORT one AS's class evolution
//                                               across retained checkpoints
//                                               (needs a --data-dir server)
//   bgpcu_query watch --connect HOST:PORT       stream the class-change feed
//     [--transition FROM->TO] [--asns A,B,...]  (filtered server-side)
//     [--replay-from E] [--max-batches N]
//
// Connection options (any network command):
//   --timeout MS   TCP connect + handshake deadline (default 5000; 0 = none)
//   --retries N    connect attempts before giving up (default 3)
//   --no-retry     single connect attempt, no backoff (same as --retries 1)
//
// Diagnostics go to stderr; stdout carries only the requested artifact
// data. Exit codes: 0 success, 1 runtime failure, 2 usage error,
// 3 connect/transport failure (server unreachable or link lost for good).
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/wire.h"
#include "core/database.h"
#include "net/client.h"
#include "net/resilient.h"
#include "net/socket.h"
#include "obs/render.h"
#include "util/cli.h"

namespace {

using namespace bgpcu;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " info FILE... | dump FILE | asn ASN FILE | deltas FILE... |"
               " convert text|wire IN OUT\n"
               "       " << argv0
            << " [--connect HOST:PORT] [--token T] [--timeout MS] [--retries N]"
               " [--no-retry] dump | asn ASN | live ASN |"
               " history ASN | stats [--json] | metrics [--json] |"
               " watch [--transition FROM->TO] [--asns A,B,...]"
               " [--replay-from E] [--max-batches N]\n";
  return 2;
}

const char* frame_type_name(api::FrameType type) {
  switch (type) {
    case api::FrameType::kSnapshot: return "snapshot";
    case api::FrameType::kDeltaBatch: return "delta-batch";
    case api::FrameType::kError: return "error";
    case api::FrameType::kSubscribe: return "subscribe";
    case api::FrameType::kSubscribed: return "subscribed";
    case api::FrameType::kEvent: return "event";
    case api::FrameType::kRequest: return "request";
    case api::FrameType::kResponse: return "response";
    case api::FrameType::kUnsubscribe: return "unsubscribe";
    case api::FrameType::kUnsubscribed: return "unsubscribed";
    case api::FrameType::kHello: return "hello";
    case api::FrameType::kWelcome: return "welcome";
    case api::FrameType::kPing: return "ping";
    case api::FrameType::kPong: return "pong";
    case api::FrameType::kBusy: return "busy";
  }
  return "unknown";
}

/// Re-frames one frame's bytes so the single-frame decoders can be reused on
/// members of a concatenated log.
std::vector<std::uint8_t> single_frame_bytes(std::span<const std::uint8_t> data,
                                             std::size_t start, std::size_t size) {
  return {data.begin() + static_cast<std::ptrdiff_t>(start),
          data.begin() + static_cast<std::ptrdiff_t>(start + size)};
}

using util::parse_asn_or_exit;
using util::parse_u64_or_exit;

// ------------------------------------------------------------- file mode --

int cmd_info(const std::vector<std::string>& files) {
  bool failed = false;
  for (const auto& path : files) {
    try {
      // Sniff the head before deciding what (and whether) to load fully —
      // identifying a multi-GB text database must not read it all.
      const auto format = api::sniff_format(path);
      if (format == api::Format::kWire) {
        const auto bytes = api::read_file_bytes(path);
        std::cout << path << ": wire v"
                  << (bytes.size() > 4 ? int{bytes[4]} : 0)  // the file's version field
                  << ", " << bytes.size() << " bytes\n";
        api::FrameReader frames(bytes);
        std::size_t start = 0;
        while (const auto frame = frames.next()) {
          std::cout << "  frame " << frame_type_name(frame->type) << ", " << frame->size
                    << " bytes";
          const auto whole = single_frame_bytes(bytes, start, frame->size);
          if (frame->type == api::FrameType::kSnapshot) {
            const auto snapshot = api::decode_snapshot(whole);
            std::cout << ", " << snapshot.counter_map().size() << " ASes, "
                      << snapshot.columns_swept() << " columns swept";
          } else if (frame->type == api::FrameType::kDeltaBatch) {
            const auto delta = api::decode_delta_batch(whole);
            std::cout << ", epoch " << delta.epoch << ", " << delta.changes.size()
                      << " change(s)";
          }
          std::cout << "\n";
          start += frame->size;
        }
      } else if (format == api::Format::kText) {
        const auto snapshot = core::read_database_file(path);
        std::cout << path << ": text v1, " << std::filesystem::file_size(path)
                  << " bytes, " << snapshot.counter_map().size() << " ASes\n";
      } else {
        std::cerr << path << ": unrecognized format\n";
        failed = true;
      }
    } catch (const std::exception& e) {
      // Diagnose and keep going: `info` over a mixed directory should
      // identify everything it can and still fail loudly overall.
      std::cerr << path << ": " << e.what() << "\n";
      failed = true;
    }
  }
  return failed ? 1 : 0;
}

int cmd_dump(const std::string& path) {
  const auto snapshot = api::read_snapshot_any(path);
  core::write_database(std::cout, snapshot);
  return 0;
}

void print_asn_line(bgp::Asn asn, const core::UsageClass& usage,
                    const core::UsageCounters& k) {
  std::cout << "AS " << asn << " class " << usage.code() << " t " << k.t << " s " << k.s
            << " f " << k.f << " c " << k.c << "\n";
}

int cmd_asn(const std::string& asn_text, const std::string& path) {
  const auto asn = parse_asn_or_exit(asn_text);
  const auto snapshot = api::read_snapshot_any(path);
  print_asn_line(asn, snapshot.usage(asn), snapshot.counters(asn));
  return 0;
}

int cmd_deltas(const std::vector<std::string>& files) {
  for (const auto& path : files) {
    const auto bytes = api::read_file_bytes(path);
    api::FrameReader frames(bytes);
    std::size_t start = 0;
    while (const auto frame = frames.next()) {
      if (frame->type == api::FrameType::kDeltaBatch) {
        const auto delta =
            api::decode_delta_batch(single_frame_bytes(bytes, start, frame->size));
        for (const auto& change : delta.changes) {
          std::cout << change.to_string(delta.epoch) << "\n";
        }
      }
      start += frame->size;
    }
  }
  return 0;
}

int cmd_convert(const std::string& format_name, const std::string& in,
                const std::string& out) {
  const auto format = api::parse_format(format_name);
  if (!format) {
    std::cerr << "convert format must be 'text' or 'wire', got '" << format_name << "'\n";
    return 2;
  }
  const auto snapshot = api::read_snapshot_any(in);
  api::make_codec(*format)->write_snapshot_file(out, snapshot);
  return 0;
}

// ---------------------------------------------------------- network mode --

/// Everything --connect mode needs, pulled out of the argument list.
struct ConnectOptions {
  std::string host;
  std::uint16_t port = 0;
  std::string token;
  std::string transition;
  std::string asns;
  std::optional<stream::Epoch> replay_from;
  std::uint64_t max_batches = 0;  ///< 0 = stream until the server closes.
  bool json = false;              ///< stats/metrics: machine-readable output.
  std::uint64_t timeout_ms = 5000;
  std::uint64_t retries = 3;
};

net::ResilientClient connect_client(const ConnectOptions& options) {
  net::ResilientConfig config;
  config.token = options.token;
  config.backoff = {.initial_ms = 100, .cap_ms = 2000, .seed = 1};
  config.max_connect_attempts = options.retries;
  config.handshake_timeout_ms = options.timeout_ms;
  const auto host = options.host;
  const auto port = options.port;
  const auto timeout = std::chrono::milliseconds(options.timeout_ms);
  return net::ResilientClient(
      [host, port, timeout] { return net::tcp_connect(host, port, timeout); },
      std::move(config));
}

int cmd_net_dump(const ConnectOptions& options) {
  auto client = connect_client(options);
  const auto response = client.query({.kind = api::QueryKind::kSnapshot});
  if (!response.snapshot) throw std::runtime_error("server returned no snapshot");
  core::write_database(std::cout, *response.snapshot);
  return 0;
}

int cmd_net_asn(const ConnectOptions& options, const std::string& asn_text,
                api::QueryKind kind) {
  const auto asn = parse_asn_or_exit(asn_text);
  auto client = connect_client(options);
  const auto response = client.query({.kind = kind, .asn = asn});
  if (!response.asn_class) throw std::runtime_error("server returned no per-ASN answer");
  print_asn_line(response.asn_class->asn, response.asn_class->usage,
                 response.asn_class->counters);
  return 0;
}

int cmd_net_history(const ConnectOptions& options, const std::string& asn_text) {
  const auto asn = parse_asn_or_exit(asn_text);
  auto client = connect_client(options);
  const auto response = client.query({.kind = api::QueryKind::kHistory, .asn = asn});
  if (!response.history) throw std::runtime_error("server returned no history");
  for (const auto& point : *response.history) {
    std::cout << "epoch " << point.epoch << " AS " << asn << " class "
              << point.usage.code() << "\n";
  }
  return 0;
}

/// "1234567" -> "1,234,567"; values under 1000 are unchanged, so scripts
/// grepping small counters ("live_tuples 0") keep working.
std::string with_thousands(std::uint64_t value) {
  std::string digits = std::to_string(value);
  if (digits.size() <= 3) return digits;
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i >= lead && (i - lead) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

/// A nanosecond count as "(X.XX ms)" or "(X.XX µs)" for human eyes.
std::string human_ns(std::uint64_t ns) {
  char buf[48];
  if (ns >= 1000000) {
    std::snprintf(buf, sizeof buf, "(%.2f ms)", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "(%.2f µs)", static_cast<double>(ns) / 1e3);
  }
  return buf;
}

int cmd_net_stats(const ConnectOptions& options) {
  auto client = connect_client(options);
  const auto response = client.query({.kind = api::QueryKind::kStats});
  if (!response.stats) throw std::runtime_error("server returned no stats");
  const auto& s = *response.stats;
  // Name/value pairs in one place so the plain and JSON renderings can
  // never drift apart.
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"epoch", s.epoch},
      {"live_tuples", s.live_tuples},
      {"evicted_total", s.evicted_total},
      {"shards", s.shards},
      {"window_epochs", s.window_epochs},
      {"subscriptions", s.subscriptions},
      {"snapshot_sweeps", s.snapshot_sweeps},
      {"snapshot_cache_hits", s.snapshot_cache_hits},
      {"index_deltas_applied", s.index_deltas_applied},
      {"index_compactions", s.index_compactions},
      {"index_rebuilds", s.index_rebuilds},
      {"locked_ns_last", s.locked_ns_last},
      {"locked_ns_total", s.locked_ns_total},
  };
  if (options.json) {
    std::cout << "{";
    bool first = true;
    for (const auto& [name, value] : fields) {
      if (!first) std::cout << ",";
      first = false;
      std::cout << "\"" << name << "\":" << value;
    }
    std::cout << "}\n";
    return 0;
  }
  for (const auto& [name, value] : fields) {
    std::cout << name << " " << with_thousands(value);
    // The lock-time counters get a human-scale duration alongside the raw
    // nanoseconds.
    if (std::string_view(name).starts_with("locked_ns")) std::cout << " " << human_ns(value);
    std::cout << "\n";
  }
  return 0;
}

int cmd_net_metrics(const ConnectOptions& options) {
  auto client = connect_client(options);
  const auto response = client.query({.kind = api::QueryKind::kMetrics});
  if (!response.metrics) throw std::runtime_error("server returned no metrics");
  if (options.json) {
    std::cout << obs::render_json(*response.metrics, 0) << "\n";
  } else {
    std::cout << obs::render_prometheus(*response.metrics);
  }
  return 0;
}

int cmd_net_watch(const ConnectOptions& options) {
  api::SubscriptionFilter filter;
  if (!options.transition.empty()) {
    try {
      const auto spec = api::SubscriptionFilter::transition(options.transition);
      filter.from = spec.from;
      filter.to = spec.to;
    } catch (const std::invalid_argument& e) {
      std::cerr << "--transition: " << e.what() << "\n";
      return 2;
    }
  }
  if (!options.asns.empty()) {
    filter.watch = util::parse_asn_list_or_exit("--asns", options.asns);
  }

  auto client = connect_client(options);
  client.subscribe(filter, options.replay_from);
  std::uint64_t batches = 0;
  while (auto event = client.next_event()) {
    // Lifecycle events go to stderr so stdout stays a pure change feed.
    if (event->kind == net::ResilientClient::Event::Kind::kReconnected) {
      std::cerr << "reconnected (" << event->attempts << " attempt(s)), resuming from epoch "
                << (client.last_seen_epoch() ? *client.last_seen_epoch() + 1 : 0) << "\n";
      continue;
    }
    if (event->kind == net::ResilientClient::Event::Kind::kGap) {
      std::cerr << "gap: epochs [" << event->gap_from << ", " << event->gap_to
                << "] fell off the replay horizon; re-synced from a snapshot\n";
    }
    for (const auto& change : event->delta.changes) {
      std::cout << change.to_string(event->delta.epoch) << "\n";
    }
    std::cout.flush();
    if (options.max_batches != 0 && ++batches >= options.max_batches) break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Split options (anywhere on the line) from positional arguments.
  ConnectOptions options;
  bool connected = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--connect") {
      const auto hostport = next();
      const auto colon = hostport.rfind(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 == hostport.size()) {
        std::cerr << "--connect needs HOST:PORT, got '" << hostport << "'\n";
        return 2;
      }
      options.host = hostport.substr(0, colon);
      const auto port = parse_u64_or_exit("--connect port", hostport.substr(colon + 1));
      if (port == 0 || port > 0xFFFF) {
        std::cerr << "--connect port must be in [1, 65535]\n";
        return 2;
      }
      options.port = static_cast<std::uint16_t>(port);
      connected = true;
    } else if (arg == "--token") {
      options.token = next();
    } else if (arg == "--transition") {
      options.transition = next();
    } else if (arg == "--asns") {
      options.asns = next();
    } else if (arg == "--replay-from") {
      options.replay_from = parse_u64_or_exit(arg, next());
    } else if (arg == "--max-batches") {
      options.max_batches = parse_u64_or_exit(arg, next());
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--timeout") {
      options.timeout_ms = parse_u64_or_exit(arg, next());
    } else if (arg == "--retries") {
      options.retries = parse_u64_or_exit(arg, next());
      if (options.retries == 0) {
        std::cerr << "--retries must be >= 1 (use --no-retry for one attempt)\n";
        return 2;
      }
    } else if (arg == "--no-retry") {
      options.retries = 1;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty()) return usage(argv[0]);
  const std::string command = args[0];
  args.erase(args.begin());

  try {
    if (connected) {
      if (command == "dump" && args.empty()) return cmd_net_dump(options);
      if (command == "asn" && args.size() == 1) {
        return cmd_net_asn(options, args[0], api::QueryKind::kClassOf);
      }
      if (command == "live" && args.size() == 1) {
        return cmd_net_asn(options, args[0], api::QueryKind::kLiveCounters);
      }
      if (command == "history" && args.size() == 1) {
        return cmd_net_history(options, args[0]);
      }
      if (command == "stats" && args.empty()) return cmd_net_stats(options);
      if (command == "metrics" && args.empty()) return cmd_net_metrics(options);
      if (command == "watch" && args.empty()) return cmd_net_watch(options);
      return usage(argv[0]);
    }
    if (command == "info" && !args.empty()) return cmd_info(args);
    if (command == "dump" && args.size() == 1) return cmd_dump(args[0]);
    if (command == "asn" && args.size() == 2) return cmd_asn(args[0], args[1]);
    if (command == "deltas" && !args.empty()) return cmd_deltas(args);
    if (command == "convert" && args.size() == 3) {
      return cmd_convert(args[0], args[1], args[2]);
    }
    return usage(argv[0]);
  } catch (const net::TransportError& e) {
    // Includes RetriesExhausted: the server was unreachable (or the link
    // died for good), as opposed to the server *answering* with an error.
    std::cerr << "error: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
