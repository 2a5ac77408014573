// batch_classify: the paper's own run and bgpcu_classify's path. A closed
// loop on one thread; each rep loads one day's dumps from disk, extracts and
// sanitizes them, deduplicates, runs the column sweep with the default
// configuration and renders the database. Parse, sanitize, dedup and the cold
// sweep do all the work; stream, store, api and net do none, so this is the
// "no change" side for every serving-path optimisation.
//
//   primary    one rep: archive files -> database bytes
//   secondary  the database's read path: parse it back, answer 64 ASNs
//   setup      a cold bgpcu_classify process over the same files, whose
//              --output must be byte-identical to the in-process database
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "archive.h"
#include "collector/extract.h"
#include "core/database.h"
#include "core/engine.h"
#include "layers.h"
#include "mrt/reader.h"
#include "registry/registry.h"
#include "topology/rng.h"
#include "workloads.h"

extern char** environ;

namespace bgpcu::benchpipe {

namespace {

constexpr int kSetups = 3;
constexpr int kWarmupReps = 2;
constexpr int kMinReps = 3;
constexpr int kReadsPerRep = 10;
constexpr std::size_t kLookups = 64;

/// Runs `argv` with stdout/stderr discarded; true on exit status 0.
bool run_process(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return false;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct RepOutput {
  std::string database;
  core::CounterMap counters;
  std::uint64_t sanitizer_in = 0;
  std::uint64_t sanitizer_out = 0;
  std::uint64_t decode_errors = 0;
};

/// One classification, exactly bgpcu_classify's calls, traced per call.
RepOutput classify(const std::vector<std::string>& files,
                   const registry::AllocationRegistry& reg, Tracer& tracer,
                   std::uint64_t trace, SpanId root) {
  RepOutput out;
  collector::DatasetBuilder builder(reg);
  std::optional<collector::DatasetBundle> bundle;
  {
    const ScopedSpan parse(tracer, "collector.parse", trace, root);
    for (const auto& path : files) {
      std::vector<std::uint8_t> bytes;
      {
        const ScopedSpan s(tracer, "mrt.load_file", trace, parse.id());
        bytes = mrt::load_file(path);
      }
      const ScopedSpan s(tracer, "collector.add_dump", trace, parse.id());
      builder.add_dump(bytes);
    }
    const ScopedSpan s(tracer, "collector.finish", trace, parse.id());
    bundle.emplace(builder.finish());
  }
  out.sanitizer_in = bundle->sanitation.input;
  out.sanitizer_out = bundle->sanitation.output;
  out.decode_errors = bundle->extraction.decode_errors;
  std::optional<core::InferenceResult> result;
  {
    const ScopedSpan s(tracer, "core.run", trace, root);
    result.emplace(core::ColumnEngine().run(bundle->dataset));
  }
  std::ostringstream db;
  {
    const ScopedSpan s(tracer, "core.write_database", trace, root);
    core::write_database(db, *result);
  }
  out.database = std::move(db).str();
  out.counters = result->counter_map();
  return out;
}

}  // namespace

WorkloadResult run_batch_classify(const RunOptions& options) {
  WorkloadResult result;
  const auto files = list_mrt(day_dir(options.archive, 0));
  const auto reg = registry::allow_all();
  Tracer tracer(options.traced, 1 << 16);

  // Set-up: the shipped CLI, cold, several times. Its database is checked
  // against the in-process one once the first rep has produced it.
  const auto cli_db = (std::filesystem::path(options.work_dir) / "cli.db").string();
  std::vector<std::string> argv = {options.classify_bin, "--output", cli_db};
  argv.insert(argv.end(), files.begin(), files.end());
  HostSpeed host;
  std::vector<TimedSample> setup_s;
  std::string cli_output;
  for (int i = 0; i < kSetups; ++i) {
    host.probe();
    const auto t0 = Clock::now();
    const bool ok = run_process(argv);
    setup_s.push_back({t0, ms_between(t0, Clock::now()) / 1e3});
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      result.fail("bgpcu_classify exited non-zero");
      continue;
    }
    cli_output = read_text(cli_db);
  }

  std::string reference;
  core::CounterMap reference_counters;
  std::vector<bgp::Asn> lookup_asns;
  std::vector<TimedSample> primary_ms;
  std::vector<TimedSample> secondary_ms;
  std::uint64_t sanitizer_in = 0, sanitizer_out = 0, decode_errors = 0;
  topology::Rng rng(options.seed ^ 0xB47Cull);

  Clock::time_point timed_start;
  std::optional<RssSampler> rss;
  for (int rep = 0;; ++rep) {
    const bool timed = rep >= kWarmupReps;
    if (rep == kWarmupReps) {
      timed_start = Clock::now();
      rss.emplace();
    }
    if (timed && rep >= kWarmupReps + kMinReps &&
        ms_between(timed_start, Clock::now()) >= options.seconds * 1e3) {
      break;
    }
    ++result.attempted;
    host.probe();
    const auto t0 = Clock::now();
    const auto root = timed ? tracer.begin("rep", rep) : kNoSpan;
    Tracer untraced(false, 0);
    auto out = classify(files, reg, timed ? tracer : untraced, rep, root);
    tracer.end(root);
    if (timed) primary_ms.push_back({t0, ms_between(t0, Clock::now())});

    if (rep == 0) {
      reference = out.database;
      reference_counters = out.counters;
      for (const auto& [asn, counters] : reference_counters) lookup_asns.push_back(asn);
      if (!cli_output.empty() && cli_output != reference) {
        result.fail("bgpcu_classify --output differs from the in-process database");
      }
    } else if (out.database != reference) {
      ++result.failed;
      result.fail("rep " + std::to_string(rep) + ": database bytes differ from rep 0");
    }
    if (timed) {
      sanitizer_in += out.sanitizer_in;
      sanitizer_out += out.sanitizer_out;
      decode_errors += out.decode_errors;
    }

    // The read path of the published database: parse it back and answer
    // class questions for a seeded sample of ASes.
    for (int r = 0; r < kReadsPerRep && !lookup_asns.empty(); ++r) {
      std::vector<bgp::Asn> asks(kLookups);
      for (auto& asn : asks) asn = lookup_asns[rng.below(lookup_asns.size())];
      const auto t1 = Clock::now();
      std::istringstream in(out.database);
      const auto read_back = core::read_database(in);
      std::size_t wrong = 0;
      for (const auto asn : asks) {
        wrong += read_back.counters(asn) != reference_counters.at(asn);
      }
      if (timed) secondary_ms.push_back({t1, ms_between(t1, Clock::now())});
      if (wrong != 0) {
        result.fail("database read-back answered " + std::to_string(wrong) + " ASNs wrongly");
      }
    }
  }

  const auto rss_mb = rss->stop();
  result.readings = {{"reps", static_cast<double>(primary_ms.size())},
                     {"files", static_cast<double>(files.size())},
                     {"trace_dropped", static_cast<double>(tracer.dropped())}};
  result.end_to_end =
      end_to_end_metrics(host, primary_ms, secondary_ms, setup_s, rss_mb, result.readings);
  if (options.traced) {
    LayerInputs in;
    in.spans = tracer.spans();
    in.roots = {"rep"};
    in.traced_primary_p50_ms = result.end_to_end.front().value;
    in.kept_ratio = sanitizer_in ? static_cast<double>(sanitizer_out) / sanitizer_in : 0;
    in.decode_errors = static_cast<double>(decode_errors);
    result.per_layer = layer_metrics(in);
    tracer.write_jsonl(options.trace_path);
  }
  return result;
}

}  // namespace bgpcu::benchpipe
