// live_tail: the serving daemon's steady state, as an open loop. A generator
// thread renames update dumps into the watch directory at a fixed 8 files/s,
// cycling through the archive's update days under fresh, timestamp-ordered
// names, so the directory grows over the run the way a collector archive
// does. An epoch costs the loop thread ~36 ms on a 4-vCPU VM, half of it in
// the window eviction of advance_epoch, so the loop is ~35% busy: well under
// saturation, where the backlog and every latency would run away. Community
// churn dominates real update traffic, so the stream re-announces
// overlapping paths under a sliding window instead of feeding fresh tuples.
// The daemon thread runs bgpcu_serve's loop (daemon.h) with a 5 ms sleep on
// an empty poll; a net::Server on loopback fans the deltas out to two
// net::ResilientClient subscribers (match-all, and 64 watched ASes) while a
// third client queries in a closed loop: kClassOf for Zipf-drawn ASes with a
// 1 ms think time, plus a kSnapshot dump every 100 ms. A change that speeds
// ingest by taking the query path's CPU shows here, and so does the reverse.
//
//   primary    freshness: a file's due time -> the match-all subscriber
//              receiving the epoch that ingested it (non-empty deltas only)
//   secondary  kClassOf round trip
//   setup      daemon start -> store open, server listening, three clients
//              handshaken and subscribed, first publish over the day-0
//              backlog received
//
// Gates: each subscriber's deltas equal the published sequence through its
// filter (delivered == published); the final kSnapshot over the wire equals
// the in-process one; every offered file is ingested.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "archive.h"
#include "collector/extract.h"
#include "daemon.h"
#include "layers.h"
#include "mrt/reader.h"
#include "net/resilient.h"
#include "net/server.h"
#include "net/socket.h"
#include "stats.h"
#include "topology/rng.h"
#include "workloads.h"

namespace bgpcu::benchpipe {

namespace fs = std::filesystem;

namespace {

constexpr double kFilesPerSecond = 8.0;
constexpr double kWarmupSeconds = 3.0;
constexpr auto kIdlePoll = std::chrono::milliseconds(5);
constexpr std::size_t kLinkAhead = 24;
constexpr std::size_t kWatchAsns = 64;
constexpr auto kThinkTime = std::chrono::milliseconds(1);
constexpr auto kDumpEvery = std::chrono::milliseconds(100);
constexpr int kSetups = 3;
constexpr auto kDrainDeadline = std::chrono::seconds(20);
constexpr auto kGeneratorSpin = std::chrono::milliseconds(1);

Clock::duration seconds_of(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

std::unique_ptr<net::ResilientClient> make_client(std::uint16_t port) {
  net::ResilientConfig config;
  // Few, immediate redials: a loopback peer that refuses three times is the
  // server shutting down, which is how the subscriber threads learn to exit.
  config.max_connect_attempts = 3;
  config.sleep_fn = [](std::chrono::milliseconds) {};
  config.request_deadline_ms = 5000;
  return std::make_unique<net::ResilientClient>(
      [port] { return net::tcp_connect("127.0.0.1", port, std::chrono::seconds(2)); },
      std::move(config));
}

struct Received {
  stream::Epoch epoch = 0;
  Clock::time_point at;
  std::vector<stream::ClassChange> changes;
};

/// Everything one bring-up creates. Members are destroyed in reverse order:
/// clients, then the server, then the daemon the server serves.
struct LiveStack {
  fs::path watch;
  std::unique_ptr<Daemon> daemon;
  std::shared_ptr<net::TcpListener> listener;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::ResilientClient> match_all;
  std::unique_ptr<net::ResilientClient> watcher;
  std::unique_ptr<net::ResilientClient> query;
  EpochOutcome first;
  Received first_receipt;
};

/// Daemon start to the first event received. Null after recording a failure.
std::unique_ptr<LiveStack> bring_up(const fs::path& root, const std::vector<std::string>& backlog,
                                    const registry::AllocationRegistry& reg,
                                    const api::SubscriptionFilter& watch_filter,
                                    TimedSample& setup_s, WorkloadResult& result) {
  auto s = std::make_unique<LiveStack>();
  s->watch = root / "watch";
  fs::create_directories(s->watch);
  for (const auto& file : backlog) {
    link_or_copy(file, (s->watch / fs::path(file).filename()).string());
  }

  const auto t0 = Clock::now();
  s->daemon = std::make_unique<Daemon>(s->watch.string(), (root / "data").string(), reg);
  (void)s->daemon->recover();
  s->listener = std::make_shared<net::TcpListener>("127.0.0.1", 0);
  s->server = std::make_unique<net::Server>(s->daemon->service(), s->listener);
  s->server->start();
  const auto port = s->listener->port();
  s->match_all = make_client(port);
  s->match_all->subscribe({});
  s->watcher = make_client(port);
  s->watcher->subscribe(watch_filter);
  s->query = make_client(port);
  (void)s->query->query({.kind = api::QueryKind::kStats});
  s->first = s->daemon->step(/*cadence_checkpoint=*/true);
  const auto event = s->match_all->next_event();
  const auto t1 = Clock::now();
  setup_s = {t0, ms_between(t0, t1) / 1e3};

  ++result.attempted;
  if (!s->first.ingested || s->first.files.size() != backlog.size() ||
      s->first.delta.changes.empty() || !event ||
      event->kind != net::ResilientClient::Event::Kind::kDelta ||
      !(event->delta == s->first.delta)) {
    ++result.failed;
    result.fail("bring-up: the first publish over the backlog did not reach the subscriber");
    return nullptr;
  }
  s->first_receipt = {event->delta.epoch, t1, event->delta.changes};
  return s;
}

/// Seeded Zipf(1) draw over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, std::uint64_t seed) : rng_(seed), cdf_(n) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) cdf_[k] = total += 1.0 / static_cast<double>(k + 1);
    for (auto& c : cdf_) c /= total;
  }

  std::size_t next() {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng_.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  topology::Rng rng_;
  std::vector<double> cdf_;
};

/// What the daemon thread saw of one ingesting epoch.
struct EpochRecord {
  stream::Epoch epoch = 0;
  std::vector<std::size_t> files;  ///< Indices into the schedule.
  Clock::time_point poll_start;
  Clock::time_point publish_end;
  double through_publish_ms = 0;
  api::EpochDelta delta;
};

struct QuerySample {
  Clock::time_point start;
  double ms = 0;
  bool snapshot = false;
};

struct SubscriberLog {
  std::vector<Received> events;
  std::atomic<std::size_t> count{0};
  std::uint64_t gaps = 0;
  std::string error;
};

/// Reads one subscription until the server goes away.
void read_events(net::ResilientClient& client, SubscriberLog& log,
                 const std::atomic<bool>& shutting_down) {
  try {
    while (auto event = client.next_event()) {
      if (event->kind == net::ResilientClient::Event::Kind::kReconnected) continue;
      if (event->kind == net::ResilientClient::Event::Kind::kGap) ++log.gaps;
      log.events.push_back({event->delta.epoch, Clock::now(), std::move(event->delta.changes)});
      log.count.store(log.events.size(), std::memory_order_release);
    }
  } catch (const std::exception& e) {
    if (!shutting_down.load()) log.error = e.what();
  }
}

/// True when `log` holds exactly the non-empty filtered deltas of `published`.
bool delivered_equals_published(const SubscriberLog& log,
                                const std::vector<api::EpochDelta>& published,
                                const api::SubscriptionFilter& filter) {
  std::size_t at = 0;
  for (const auto& delta : published) {
    const auto changes = filter.apply(delta);
    if (changes.empty()) continue;
    if (at >= log.events.size() || log.events[at].epoch != delta.epoch ||
        log.events[at].changes != changes) {
      return false;
    }
    ++at;
  }
  return at == log.events.size() && log.gaps == 0;
}

std::size_t expected_events(const std::vector<api::EpochDelta>& published,
                            const api::SubscriptionFilter& filter) {
  std::size_t n = 0;
  for (const auto& delta : published) n += !filter.apply(delta).empty();
  return n;
}

}  // namespace

WorkloadResult run_live_tail(const RunOptions& options) {
  WorkloadResult result;
  const auto reg = registry::allow_all();
  const auto backlog = list_mrt(day_dir(options.archive, 0));
  std::vector<std::string> sources;
  for (std::uint32_t d = 1; d <= live_days(options.archive); ++d) {
    for (auto& f : list_mrt(day_dir(options.archive, d))) sources.push_back(std::move(f));
  }
  if (sources.empty()) {
    result.fail("archive has no update days");
    return result;
  }

  // The watched ASes: a seeded sample of those on the first live file's
  // paths, so the filtered subscriber sees a steady share of the changes.
  api::SubscriptionFilter watch_filter;
  {
    collector::DatasetBuilder builder(reg);
    builder.add_dump(mrt::load_file(sources.front()));
    auto asns = core::distinct_asns(builder.finish().dataset);
    topology::Rng rng(options.seed ^ 0x3A7Cull);
    for (std::size_t i = asns.size(); i > 1; --i) std::swap(asns[i - 1], asns[rng.below(i)]);
    asns.resize(std::min(kWatchAsns, asns.size()));
    std::sort(asns.begin(), asns.end());
    watch_filter.watch = std::move(asns);
  }

  // Set-up, several times; the last stack stays up for the timed run.
  HostSpeed host;
  std::vector<TimedSample> setup_s;
  std::unique_ptr<LiveStack> stack;
  for (int i = 0; i < kSetups; ++i) {
    const auto root = fs::path(options.work_dir) / ("live-" + std::to_string(i));
    TimedSample setup;
    stack.reset();
    if (i > 0) fs::remove_all(fs::path(options.work_dir) / ("live-" + std::to_string(i - 1)));
    host.probe();
    stack = bring_up(root, backlog, reg, watch_filter, setup, result);
    if (!stack) return result;
    setup_s.push_back(setup);
  }
  // Hand what the set-ups freed back to the OS, so the timed phase's resident
  // set is the steady state's own and not whatever share of three backlog
  // ingests the allocator happened to keep (135-173 MB against 94 MB).
  malloc_trim(0);
  auto& daemon = *stack->daemon;

  // Query targets: the ASes of the first answer, in a seeded Zipf rank order.
  std::vector<bgp::Asn> ranked;
  for (const auto& [asn, counters] :
       daemon.service().query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map()) {
    ranked.push_back(asn);
  }
  std::sort(ranked.begin(), ranked.end());
  {
    topology::Rng rng(options.seed ^ 0x2F1Full);
    for (std::size_t i = ranked.size(); i > 1; --i) std::swap(ranked[i - 1], ranked[rng.below(i)]);
  }

  // The schedule: file i is due at t0 + i / rate, under a fresh name.
  const auto total =
      static_cast<std::size_t>((kWarmupSeconds + options.seconds) * kFilesPerSecond);
  std::vector<std::string> final_paths(total), temp_paths(total);
  std::unordered_map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < total; ++i) {
    const auto& source = sources[i % sources.size()];
    final_paths[i] = (stack->watch / ("live." + std::to_string(1621468800 + i) + "." +
                                      fs::path(source).filename().string()))
                         .string();
    temp_paths[i] = final_paths[i] + ".part";
    index_of.emplace(final_paths[i], i);
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(200);
  const auto due = [&](std::size_t i) {
    return t0 + seconds_of(static_cast<double>(i) / kFilesPerSecond);
  };
  const auto timed_start = t0 + seconds_of(kWarmupSeconds);
  const auto timed_end = timed_start + seconds_of(options.seconds);
  const auto in_window = [&](Clock::time_point t) { return t >= timed_start && t < timed_end; };

  Tracer tracer(options.traced, 1 << 18);
  std::atomic<bool> abort{false};
  std::atomic<bool> stop_daemon{false};
  std::atomic<bool> loop_done{false};
  std::atomic<bool> stop_queries{false};
  std::atomic<bool> shutting_down{false};
  std::atomic<std::size_t> renamed{0};
  std::string generator_error, daemon_error;

  // Generator: links the next files under temp names ahead of time and
  // renames each into place at its due time.
  std::vector<Clock::time_point> renamed_at(total);
  std::thread generator([&] {
    try {
      std::size_t linked = 0;
      for (std::size_t i = 0; i < total && !abort.load(); ++i) {
        for (; linked < std::min(total, i + kLinkAhead + 1); ++linked) {
          link_or_copy(sources[linked % sources.size()], temp_paths[linked]);
        }
        // Sleep to just short of the due time, then spin: waking a sleeping
        // thread on the VM took up to a few ms, which is lag the schedule
        // would charge to the daemon.
        std::this_thread::sleep_until(due(i) - kGeneratorSpin);
        while (Clock::now() < due(i)) {
        }
        fs::rename(temp_paths[i], final_paths[i]);
        renamed_at[i] = Clock::now();
        renamed.store(i + 1, std::memory_order_release);
      }
    } catch (const std::exception& e) {
      generator_error = e.what();
      abort.store(true);
    }
  });

  // Daemon loop: runs until every scheduled file is ingested.
  std::vector<EpochRecord> epochs;
  epochs.reserve(total + 1);
  std::vector<std::pair<Clock::time_point, std::size_t>> backlog_samples;
  double busy_ms = 0;
  std::size_t ingested_files = 0, read_failures = 0;
  std::uint64_t sanitizer_in = 0, sanitizer_out = 0, decode_errors = 0;
  std::thread loop([&] {
    try {
      while (!stop_daemon.load() && !abort.load()) {
        const auto offered = renamed.load(std::memory_order_acquire);
        auto e = daemon.step(/*cadence_checkpoint=*/true);
        const auto poll_start = e.start();
        backlog_samples.emplace_back(poll_start, offered - std::min(offered, ingested_files));
        if (in_window(poll_start)) busy_ms += ms_between(poll_start, e.end());
        read_failures += e.failed_files;
        if (!e.ingested) {
          if (offered == total && ingested_files == total) break;
          std::this_thread::sleep_for(kIdlePoll);
          continue;
        }
        EpochRecord record;
        record.epoch = e.epoch;
        for (const auto& path : e.files) {
          const auto it = index_of.find(path);
          if (it == index_of.end()) throw std::runtime_error("unscheduled file ingested: " + path);
          record.files.push_back(it->second);
        }
        ingested_files += record.files.size();
        record.poll_start = poll_start;
        record.publish_end = e.publish_end;
        record.through_publish_ms = e.through_publish_ms();
        if (in_window(poll_start)) {
          sanitizer_in += e.sanitizer_in;
          sanitizer_out += e.sanitizer_out;
          decode_errors += e.decode_errors;
          trace_epoch(tracer, e, "epoch", e.epoch);
        }
        record.delta = std::move(e.delta);
        epochs.push_back(std::move(record));
        // The host-speed probe runs on this thread between epochs, where it
        // overlaps no epoch's work: on a thread of its own, a probe that met
        // an epoch's eviction and sweep ran up to 20% slower, so it measured
        // the workload's load as well as the host's. The next file is due
        // ~80 ms after an epoch ends, long after the ~3 ms probe.
        host.probe();
      }
    } catch (const std::exception& e) {
      daemon_error = e.what();
      abort.store(true);
    }
    loop_done.store(true);
  });

  SubscriberLog all_log, watch_log;
  all_log.events.push_back(stack->first_receipt);
  all_log.count.store(1);
  std::thread all_reader([&] { read_events(*stack->match_all, all_log, shutting_down); });
  std::thread watch_reader([&] { read_events(*stack->watcher, watch_log, shutting_down); });

  std::vector<QuerySample> queries;
  std::uint64_t query_failures = 0;
  std::thread querier([&] {
    Zipf zipf(ranked.size(), options.seed);
    auto next_dump = Clock::now() + kDumpEvery;
    while (!stop_queries.load()) {
      const auto start = Clock::now();
      const bool dump = start >= next_dump;
      try {
        if (dump) {
          next_dump = std::max(next_dump + kDumpEvery, start);
          if (!stack->query->query({.kind = api::QueryKind::kSnapshot}).snapshot) {
            ++query_failures;
          }
        } else {
          const auto asn = ranked[zipf.next()];
          const auto response =
              stack->query->query({.kind = api::QueryKind::kClassOf, .asn = asn});
          if (!response.asn_class || response.asn_class->asn != asn) ++query_failures;
        }
        const auto end = Clock::now();
        queries.push_back({start, ms_between(start, end), dump});
        if (in_window(start)) {
          tracer.add(dump ? "net.query.snapshot" : "net.query.class_of", queries.size(),
                     kNoSpan, start, end);
        }
      } catch (const std::exception&) {
        ++query_failures;
      }
      std::this_thread::sleep_for(kThinkTime);
    }
  });

  std::this_thread::sleep_until(timed_start);
  const auto registry_before = RegistryCounts::read();
  RssSampler rss;
  std::this_thread::sleep_until(timed_end);
  const auto registry_during = RegistryCounts::read().minus(registry_before);
  const auto rss_mb = rss.stop();

  generator.join();
  const auto drain_deadline = Clock::now() + kDrainDeadline;
  while (!loop_done.load() && Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop_daemon.store(true);
  loop.join();

  // Everything published since the subscriptions opened.
  std::vector<api::EpochDelta> published = {stack->first.delta};
  for (const auto& e : epochs) published.push_back(e.delta);
  const api::SubscriptionFilter match_all;
  const auto expect_all = expected_events(published, match_all);
  const auto expect_watch = expected_events(published, watch_filter);
  const auto event_deadline = Clock::now() + kDrainDeadline;
  while (!abort.load() && Clock::now() < event_deadline &&
         (all_log.count.load() < expect_all || watch_log.count.load() < expect_watch)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop_queries.store(true);
  querier.join();

  // With ingest stopped, the answer over the wire must equal the local one.
  try {
    const auto wire = stack->query->query({.kind = api::QueryKind::kSnapshot});
    const auto local = daemon.service().query({.kind = api::QueryKind::kSnapshot});
    if (!wire.snapshot || wire.snapshot->counter_map() != local.snapshot->counter_map()) {
      result.fail("final kSnapshot over the wire differs from the in-process answer");
    }
  } catch (const std::exception& e) {
    result.fail(std::string("final kSnapshot failed: ") + e.what());
  }
  shutting_down.store(true);
  stack->server->stop();
  all_reader.join();
  watch_reader.join();

  if (!generator_error.empty()) result.fail("generator: " + generator_error);
  if (!daemon_error.empty()) result.fail("daemon loop: " + daemon_error);
  for (const auto* log : {&all_log, &watch_log}) {
    if (!log->error.empty()) result.fail("subscriber: " + log->error);
  }
  if (!delivered_equals_published(all_log, published, match_all)) {
    result.fail("match-all subscriber: delivered deltas differ from the published sequence");
  }
  if (!delivered_equals_published(watch_log, published, watch_filter)) {
    result.fail("watching subscriber: delivered deltas differ from the filtered sequence");
  }

  // Freshness: every timed file whose epoch published a non-empty delta.
  std::unordered_map<stream::Epoch, Clock::time_point> receipt_of;
  for (const auto& event : all_log.events) receipt_of.emplace(event.epoch, event.at);
  std::vector<TimedSample> freshness_ms;
  std::vector<double> unattributed_ms;
  FreshnessSplit split;
  std::size_t missing = 0, nonempty = 0;
  for (const auto& e : epochs) {
    if (e.delta.changes.empty()) continue;
    ++nonempty;
    const auto receipt = receipt_of.find(e.epoch);
    bool timed = false;
    for (const auto i : e.files) {
      if (!in_window(due(i))) continue;
      timed = true;
      if (receipt == receipt_of.end()) {
        ++missing;
        continue;
      }
      const double f = ms_between(due(i), receipt->second);
      const double wait = std::max(0.0, ms_between(due(i), e.poll_start));
      const double deliver = ms_between(e.publish_end, receipt->second);
      freshness_ms.push_back({due(i), f});
      unattributed_ms.push_back(f - wait - e.through_publish_ms - deliver);
      split.total_ms += f;
      split.wait_ms += wait;
      split.pipeline_ms += e.through_publish_ms;
      split.deliver_ms += deliver;
      if (e.poll_start > due(i)) tracer.add("feed.wait", e.epoch, kNoSpan, due(i), e.poll_start);
    }
    // The server sends from inside publish(), so the event can arrive before
    // publish returns; such a delivery is an empty span.
    if (timed && receipt != receipt_of.end()) {
      tracer.add("net.deliver", e.epoch, kNoSpan, e.publish_end,
                 std::max(e.publish_end, receipt->second));
    }
  }

  std::vector<TimedSample> class_of_ms;
  std::vector<double> dump_ms;
  double round_trip_ns = 0;
  for (const auto& q : queries) {
    if (!in_window(q.start)) continue;
    if (q.snapshot) {
      dump_ms.push_back(q.ms);
    } else {
      class_of_ms.push_back({q.start, q.ms});
    }
    round_trip_ns += q.ms * 1e6;
  }
  std::vector<double> lag_ms;
  for (std::size_t i = 0; i < total; ++i) {
    if (in_window(due(i)) && i < renamed.load()) lag_ms.push_back(ms_between(due(i), renamed_at[i]));
  }
  std::size_t backlog_first = 0, backlog_second = 0;
  const auto midpoint = timed_start + (timed_end - timed_start) / 2;
  for (const auto& [at, files] : backlog_samples) {
    if (!in_window(at)) continue;
    auto& max = at < midpoint ? backlog_first : backlog_second;
    max = std::max(max, files);
  }

  const std::size_t not_ingested = total - std::min(total, ingested_files);
  if (not_ingested != 0) {
    result.fail(std::to_string(not_ingested) + " offered file(s) were never ingested");
  }
  if (missing != 0) result.fail(std::to_string(missing) + " expected event(s) not delivered");
  result.attempted += total + queries.size() + query_failures + freshness_ms.size() + missing;
  result.failed += not_ingested + query_failures + missing;

  const auto fresh = summarize(values_of(freshness_ms));
  const auto unattributed = summarize(unattributed_ms);
  const auto lag = summarize(lag_ms);
  const bool valid = lag.p99 <= 2.0 && backlog_second <= backlog_first + 1;
  result.readings = {
      {"freshness_samples", static_cast<double>(freshness_ms.size())},
      {"epochs", static_cast<double>(epochs.size())},
      {"nonempty_epochs", static_cast<double>(nonempty)},
      {"unattributed_p50_ms", unattributed.p50},
      {"coverage_gap_pct", fresh.p50 > 0 ? 100.0 * std::abs(unattributed.p50) / fresh.p50 : 0},
      {"class_of_samples", static_cast<double>(class_of_ms.size())},
      {"dump_p50_ms", summarize(dump_ms).p50},
      {"dump_samples", static_cast<double>(dump_ms.size())},
      {"gen_lag_p99_ms", lag.p99},
      {"backlog_max_first_half", static_cast<double>(backlog_first)},
      {"backlog_max_second_half", static_cast<double>(backlog_second)},
      {"read_failures", static_cast<double>(read_failures)},
      {"valid", valid ? 1.0 : 0.0},
      {"trace_dropped", static_cast<double>(tracer.dropped())},
  };
  result.end_to_end =
      end_to_end_metrics(host, freshness_ms, class_of_ms, setup_s, rss_mb, result.readings);

  if (options.traced) {
    LayerInputs in;
    in.spans = tracer.spans();
    in.roots = {"epoch"};
    in.traced_primary_p50_ms = result.end_to_end.front().value;
    in.registry = registry_during;
    in.kept_ratio = sanitizer_in ? static_cast<double>(sanitizer_out) / sanitizer_in : 0;
    in.decode_errors = static_cast<double>(decode_errors);
    in.freshness = split;
    in.query_round_trip_ns = round_trip_ns;
    in.loop_busy_share = busy_ms / (options.seconds * 1e3);
    result.per_layer = layer_metrics(in);
    tracer.write_jsonl(options.trace_path);
  }
  return result;
}

}  // namespace bgpcu::benchpipe
