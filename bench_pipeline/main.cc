// bench_pipeline — the repository's end-to-end benchmark (see README.md).
//
//   bench_pipeline --gen-only DIR --seed S
//       writes the seeded MRT archive (archive.h) and exits
//   bench_pipeline --workload W --archive DIR --work-dir DIR --classify-bin BIN
//                  --seed S --seconds T [--trace-file F] [--out FILE] [--commit SHA]
//       runs one workload over an archive and prints the result line as the
//       last line of stdout; exits 1 when a correctness gate fails
//   bench_pipeline --selftest
//       checks the measurement code on fixed synthetic inputs
//
// bench_pipeline/run.py builds this binary, generates the archive in its own
// process, and runs each workload in another, so a workload's peak RSS
// excludes the generator's in-memory world.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "archive.h"
#include "obs/log.h"
#include "report.h"
#include "workloads.h"

#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace bgpcu::benchpipe {
int run_selftest();
}

namespace {

using namespace bgpcu::benchpipe;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --gen-only DIR --seed S\n"
               "       "
            << argv0
            << " --workload batch_classify|live_tail|lifecycle --archive DIR --work-dir DIR\n"
               "           --classify-bin BIN --seed S --seconds T [--trace-file F]"
               " [--out FILE] [--commit SHA]\n"
               "       "
            << argv0 << " --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A named workload measures one fixed size; the older benches' scale knob
  // must not silently change it.
  if (std::getenv("BGPCU_SCALE") != nullptr) {
    std::cerr << "bench_pipeline: BGPCU_SCALE is set, but workload sizes are fixed; "
                 "unset it to run the benchmark\n";
    return 2;
  }

  // The store logs every checkpoint and recovery at info; the lifecycle
  // workload does dozens per run, which would bury the result in stderr.
  bgpcu::obs::set_log_level(bgpcu::obs::LogLevel::kWarn);

  std::string gen_dir, workload, out_path, commit;
  std::uint32_t gen_live_days = ArchiveParams{}.live_days;
  RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--selftest") {
        selftest = true;
      } else if (arg == "--gen-only") {
        gen_dir = next();
      } else if (arg == "--live-days") {
        gen_live_days = static_cast<std::uint32_t>(std::stoul(next()));
      } else if (arg == "--workload") {
        workload = next();
      } else if (arg == "--archive") {
        options.archive = next();
      } else if (arg == "--work-dir") {
        options.work_dir = next();
      } else if (arg == "--classify-bin") {
        options.classify_bin = next();
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(next());
      } else if (arg == "--trace-file") {
        options.trace_path = next();
        options.traced = true;
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--commit") {
        commit = next();
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }

  if (selftest) return run_selftest();
  try {
    if (!gen_dir.empty()) {
      const auto bytes =
          generate_archive(gen_dir, {.seed = options.seed, .live_days = gen_live_days});
      std::cerr << "archive: " << bytes / 1000000 << " MB in " << gen_dir << "\n";
      return 0;
    }
    if (workload.empty() || options.archive.empty() || options.work_dir.empty() ||
        options.seconds <= 0) {
      return usage(argv[0]);
    }
    std::filesystem::create_directories(options.work_dir);

    WorkloadResult result;
    if (workload == "batch_classify") {
      if (options.classify_bin.empty()) return usage(argv[0]);
      result = run_batch_classify(options);
    } else if (workload == "live_tail") {
      result = run_live_tail(options);
    } else if (workload == "lifecycle") {
      result = run_lifecycle(options);
    } else {
      std::cerr << "unknown workload: " << workload << "\n";
      return 2;
    }
    std::filesystem::remove_all(options.work_dir);

    for (const auto& error : result.errors) std::cerr << "FAIL: " << error << "\n";
    const auto& metrics = options.traced ? result.per_layer : result.end_to_end;
    if (!out_path.empty()) {
      HostInfo host{std::thread::hardware_concurrency(), __VERSION__, BENCH_BUILD_TYPE, commit};
      std::ofstream out(out_path, std::ios::app);
      out << detail_record(workload, options.seed, options.seconds, options.traced, host,
                           result.correct(), result.attempted, result.failed, metrics,
                           result.readings, result.errors)
          << "\n";
      if (!out) std::cerr << "cannot write " << out_path << "\n";
    }
    std::cout << result_line(result.correct(), std::max<std::uint64_t>(result.attempted, 1),
                             result.failed, metrics)
              << std::endl;
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_pipeline: " << e.what() << "\n";
    return 1;
  }
}
