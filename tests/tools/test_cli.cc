// CLI contract tests for the real tool binaries (paths injected by CMake as
// BGPCU_CLASSIFY_BIN / BGPCU_STREAM_BIN / ...): argument validation must fail fast
// with a one-line error and exit code 2, and the happy path must produce
// readable artifacts end to end through the Service facade and both codecs.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bgp/message.h"
#include "mrt/bgp4mp.h"
#include "mrt/writer.h"

namespace bgpcu {
namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved.
};

/// Like RunResult but with the two streams kept apart, for the tests that
/// pin *where* diagnostics go.
struct SplitRunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Unique capture-file stem: ctest runs each test case as its own process
/// concurrently, so paths must be unique per process, not just per call.
fs::path capture_stem() {
  static int counter = 0;
  return fs::temp_directory_path() / ("bgpcu_cli_out_" + std::to_string(::getpid()) + "_" +
                                      std::to_string(++counter));
}

RunResult run(const std::string& command) {
  const auto capture = capture_stem();
  const auto full = command + " > '" + capture.string() + "' 2>&1";
  const int status = std::system(full.c_str());
  RunResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.output = slurp(capture);
  fs::remove(capture);
  return result;
}

SplitRunResult run_split(const std::string& command) {
  const auto out_path = capture_stem();
  const auto err_path = capture_stem();
  const auto full =
      command + " > '" + out_path.string() + "' 2> '" + err_path.string() + "'";
  const int status = std::system(full.c_str());
  SplitRunResult result;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.out = slurp(out_path);
  result.err = slurp(err_path);
  fs::remove(out_path);
  fs::remove(err_path);
  return result;
}

std::string classify_bin() { return BGPCU_CLASSIFY_BIN; }
std::string stream_bin() { return BGPCU_STREAM_BIN; }
std::string query_bin() { return BGPCU_QUERY_BIN; }
std::string serve_bin() { return BGPCU_SERVE_BIN; }
std::string store_bin() { return BGPCU_STORE_BIN; }

/// Polls `log_file` until `needle` appears (10 s budget).
bool wait_in_log(const fs::path& log_file, const std::string& needle) {
  for (int i = 0; i < 100; ++i) {
    if (slurp(log_file).find(needle) != std::string::npos) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

/// SIGTERMs the daemon behind `pid_file` and waits for its clean-shutdown
/// log line. (The daemon is a zombie child of system()'s exited shell, so
/// the log line — not kill -0 — is the reliable termination signal.)
::testing::AssertionResult shut_down_cleanly(const fs::path& pid_file,
                                             const fs::path& log_file) {
  std::string pid;
  std::stringstream(slurp(pid_file)) >> pid;
  if (pid.empty()) return ::testing::AssertionFailure() << "no pid recorded";
  if (std::system(("kill -TERM " + pid).c_str()) != 0) {
    return ::testing::AssertionFailure() << "kill -TERM " << pid << " failed";
  }
  if (!wait_in_log(log_file, "shut down cleanly")) {
    return ::testing::AssertionFailure()
           << "daemon did not shut down on SIGTERM; log: " << slurp(log_file);
  }
  return ::testing::AssertionSuccess();
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bgpcu_cli_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// Writes one BGP4MP update dump announcing `prefix` over `path`.
  void write_dump(const std::string& name, std::vector<bgp::Asn> path,
                  const std::string& prefix) {
    const bgp::Asn peer = path.front();
    bgp::UpdateMessage update;
    update.attributes.as_path = bgp::AsPath::from_sequence(std::move(path));
    update.attributes.communities.push_back(
        bgp::CommunityValue::regular(static_cast<std::uint16_t>(peer), 1));
    update.nlri = {bgp::Prefix::parse(prefix)};
    mrt::MrtWriter writer;
    writer.write_message(1621382400, mrt::Bgp4mpMessage::ipv4_session(
                                         peer, 65000, 0xC0A80001, 0xC0A80002,
                                         update.encode(true)));
    writer.flush_to_file((dir_ / name).string());
  }

  fs::path dir_;
};

TEST_F(CliTest, RejectsZeroShards) {
  const auto r = run(stream_bin() + " --shards 0 '" + dir_.string() + "'");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--shards must be >= 1"), std::string::npos) << r.output;
}

TEST_F(CliTest, RejectsNonNumericWindow) {
  const auto r = run(stream_bin() + " --window abc '" + dir_.string() + "'");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("needs a non-negative integer"), std::string::npos) << r.output;
}

TEST_F(CliTest, RejectsNegativeWindow) {
  const auto r = run(stream_bin() + " --window -1 '" + dir_.string() + "'");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliTest, RejectsNonPlainDecimalIntegerFlags) {
  // strtoull on its own waves all of these through (leading whitespace and
  // '+' are consumed silently); the tools must insist on a plain decimal
  // digit string. Shell-quoted so the whitespace reaches argv intact.
  const char* bad[] = {" 80",  "+80",   "80 ",  "8 0", "0x10", "1e3",
                       "80\t", "\t80", "++1",  "8-",  "",     " "};
  for (const auto* value : bad) {
    const auto shards = run(stream_bin() + " --shards '" + value + "' '" + dir_.string() + "'");
    EXPECT_EQ(shards.exit_code, 2) << "--shards accepted '" << value << "'";
    EXPECT_NE(shards.output.find("needs a non-negative integer"), std::string::npos)
        << "--shards '" << value << "': " << shards.output;

    const auto port = run(serve_bin() + " --port '" + std::string(value) + "'");
    EXPECT_EQ(port.exit_code, 2) << "--port accepted '" << value << "'";
  }
  // Overflow past uint64 is rejected too, not silently saturated.
  const auto huge = run(stream_bin() + " --window 99999999999999999999999999 '" +
                        dir_.string() + "'");
  EXPECT_EQ(huge.exit_code, 2);
  EXPECT_NE(huge.output.find("needs a non-negative integer"), std::string::npos)
      << huge.output;
  // The plain spellings still parse (regression guard for the gate).
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  const auto ok = run(stream_bin() + " --once --shards 4 --window 2 --extension .mrt '" +
                      dir_.string() + "'");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST_F(CliTest, RejectsNonPlainAsnAndThresholdSpellings) {
  // "-1" is absent: a leading dash is consumed by option parsing (unknown
  // option, still exit 2) before ASN validation ever sees it.
  for (const char* value : {" 3356", "+3356", "3356 "}) {
    const auto r = run(query_bin() + " asn '" + std::string(value) + "' somefile");
    EXPECT_EQ(r.exit_code, 2) << "asn accepted '" << value << "'";
    EXPECT_NE(r.output.find("ASN must be"), std::string::npos) << r.output;
  }
  for (const auto& bin : {stream_bin(), classify_bin()}) {
    for (const char* value : {" 0.99", "+0.99", "0.99 ", " .99", "0x1p-1", "infinity"}) {
      const auto r = run(bin + " --threshold '" + value + "' '" + dir_.string() + "'");
      EXPECT_EQ(r.exit_code, 2) << bin << " --threshold accepted '" << value << "'";
      EXPECT_NE(r.output.find("--threshold"), std::string::npos) << r.output;
    }
  }
}

TEST_F(CliTest, RejectsUnknownFlag) {
  const auto r = run(stream_bin() + " --frobnicate '" + dir_.string() + "'");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option: --frobnicate"), std::string::npos) << r.output;
}

TEST_F(CliTest, RejectsMalformedThreshold) {
  // Both tools parse the flag before reading any input.
  for (const auto& bin : {stream_bin(), classify_bin()}) {
    for (const char* bad : {"high", "nan", "inf", "0.2", "1.5", "0.9x"}) {
      const auto r = run(bin + " --threshold " + bad + " '" + dir_.string() + "'");
      EXPECT_EQ(r.exit_code, 2) << bin << ' ' << bad;
      EXPECT_NE(r.output.find("--threshold"), std::string::npos) << r.output;
    }
  }
}

TEST_F(CliTest, ClassifyOutputFileHoldsTheStdoutBytes) {
  write_dump("updates.0001.mrt", {3356, 1299, 2914}, "203.0.113.0/24");
  write_dump("updates.0002.mrt", {1299, 2914}, "198.51.100.0/24");
  const auto dumps = "'" + (dir_ / "updates.0001.mrt").string() + "' '" +
                     (dir_ / "updates.0002.mrt").string() + "'";
  const auto printed = run_split(classify_bin() + " --threshold 0.9 " + dumps);
  ASSERT_EQ(printed.exit_code, 0) << printed.err;
  ASSERT_FALSE(printed.out.empty());
  const auto db = dir_ / "classes.db";
  const auto written =
      run_split(classify_bin() + " --threshold 0.9 --output '" + db.string() + "' " + dumps);
  ASSERT_EQ(written.exit_code, 0) << written.err;
  EXPECT_TRUE(written.out.empty()) << written.out;
  EXPECT_EQ(slurp(db), printed.out);
}

TEST_F(CliTest, RejectsUnknownFormat) {
  const auto r = run(stream_bin() + " --format json '" + dir_.string() + "'");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--format"), std::string::npos) << r.output;
}

TEST_F(CliTest, RejectsBadTransitionSpec) {
  const auto r = run(stream_bin() + " --transition sideways '" + dir_.string() + "'");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--transition"), std::string::npos) << r.output;
}

TEST_F(CliTest, RejectsMissingWatchDir) {
  const auto r = run(stream_bin() + " --once");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST_F(CliTest, RejectsMissingFlagValue) {
  const auto r = run(stream_bin() + " --shards");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("needs a value"), std::string::npos) << r.output;
}

TEST_F(CliTest, DrainEmitsDeltaFeedAndWireArtifactsReadableByQuery) {
  write_dump("updates.0001.mrt", {3356, 1299, 2914}, "203.0.113.0/24");
  const auto snapshots = dir_ / "snaps";

  const auto r = run(stream_bin() + " --once --format wire --snapshot-dir '" +
                     snapshots.string() + "' --extension .mrt '" + dir_.string() + "'");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("AS 3356 changed nn->tn at epoch 0"), std::string::npos)
      << r.output;

  const auto snapshot_file = snapshots / "snapshot-000000.wire";
  const auto delta_file = snapshots / "delta-000000.wire";
  ASSERT_TRUE(fs::exists(snapshot_file));
  ASSERT_TRUE(fs::exists(delta_file));

  const auto dump = run(query_bin() + " dump '" + snapshot_file.string() + "'");
  EXPECT_EQ(dump.exit_code, 0);
  EXPECT_NE(dump.output.find("# bgpcu-inference-db v1"), std::string::npos) << dump.output;
  EXPECT_NE(dump.output.find("3356 tn 1 0 0 0"), std::string::npos) << dump.output;

  const auto asn = run(query_bin() + " asn 3356 '" + snapshot_file.string() + "'");
  EXPECT_EQ(asn.exit_code, 0);
  EXPECT_NE(asn.output.find("AS 3356 class tn t 1 s 0 f 0 c 0"), std::string::npos)
      << asn.output;

  const auto deltas = run(query_bin() + " deltas '" + delta_file.string() + "'");
  EXPECT_EQ(deltas.exit_code, 0);
  EXPECT_NE(deltas.output.find("AS 3356 changed nn->tn at epoch 0"), std::string::npos)
      << deltas.output;

  const auto info = run(query_bin() + " info '" + snapshot_file.string() + "' '" +
                        delta_file.string() + "'");
  EXPECT_EQ(info.exit_code, 0);
  EXPECT_NE(info.output.find("wire v1"), std::string::npos) << info.output;
  EXPECT_NE(info.output.find("frame snapshot"), std::string::npos) << info.output;
  EXPECT_NE(info.output.find("frame delta-batch"), std::string::npos) << info.output;
}

TEST_F(CliTest, TextAndWireSnapshotsAgreeAfterConvert) {
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  const auto text_dir = dir_ / "text";
  const auto wire_dir = dir_ / "wire";
  ASSERT_EQ(run(stream_bin() + " --once --snapshot-dir '" + text_dir.string() +
                "' --extension .mrt '" + dir_.string() + "'")
                .exit_code,
            0);
  ASSERT_EQ(run(stream_bin() + " --once --format wire --snapshot-dir '" +
                wire_dir.string() + "' --extension .mrt '" + dir_.string() + "'")
                .exit_code,
            0);

  const auto converted = dir_ / "converted.db";
  ASSERT_EQ(run(query_bin() + " convert text '" + (wire_dir / "snapshot-000000.wire").string() +
                "' '" + converted.string() + "'")
                .exit_code,
            0);

  std::ifstream a(text_dir / "snapshot-000000.db");
  std::ifstream b(converted);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_FALSE(sa.str().empty());
}

TEST_F(CliTest, QueryRejectsBadInputs) {
  EXPECT_EQ(run(query_bin()).exit_code, 2);
  EXPECT_EQ(run(query_bin() + " frob x").exit_code, 2);
  const auto bad_asn = run(query_bin() + " asn notanumber somefile");
  EXPECT_EQ(bad_asn.exit_code, 2);
  EXPECT_NE(bad_asn.output.find("ASN must be"), std::string::npos) << bad_asn.output;

  std::ofstream(dir_ / "junk.bin", std::ios::binary) << "garbage";
  const auto junk = run(query_bin() + " dump '" + (dir_ / "junk.bin").string() + "'");
  EXPECT_EQ(junk.exit_code, 1);
  EXPECT_NE(junk.output.find("unrecognized snapshot format"), std::string::npos)
      << junk.output;
}

TEST_F(CliTest, QueryDiagnosticsGoToStderrNotStdout) {
  // Build one valid snapshot and one junk file; `info` over both must put
  // artifact data on stdout, the diagnostic on stderr, and exit nonzero.
  write_dump("updates.0001.mrt", {10, 20}, "198.51.100.0/24");
  const auto snaps = dir_ / "snaps";
  ASSERT_EQ(run(stream_bin() + " --once --snapshot-dir '" + snaps.string() +
                "' --extension .mrt '" + dir_.string() + "'")
                .exit_code,
            0);
  const auto good = (snaps / "snapshot-000000.db").string();
  const auto junk = (dir_ / "junk.bin").string();
  std::ofstream(junk, std::ios::binary) << "garbage";

  const auto info = run_split(query_bin() + " info '" + good + "' '" + junk + "'");
  EXPECT_EQ(info.exit_code, 1);
  EXPECT_NE(info.out.find("text v1"), std::string::npos) << info.out;
  EXPECT_EQ(info.out.find("unrecognized format"), std::string::npos)
      << "diagnostic leaked to stdout: " << info.out;
  EXPECT_NE(info.err.find("unrecognized format"), std::string::npos) << info.err;

  // A missing file: diagnosed on stderr, other files still identified.
  const auto missing =
      run_split(query_bin() + " info '" + (dir_ / "nope.wire").string() + "' '" + good + "'");
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_NE(missing.out.find("text v1"), std::string::npos) << missing.out;
  EXPECT_NE(missing.err.find("nope.wire"), std::string::npos) << missing.err;

  // Usage and runtime errors keep stdout silent too.
  const auto bad_asn = run_split(query_bin() + " asn notanumber somefile");
  EXPECT_EQ(bad_asn.exit_code, 2);
  EXPECT_TRUE(bad_asn.out.empty()) << bad_asn.out;
  EXPECT_NE(bad_asn.err.find("ASN must be"), std::string::npos) << bad_asn.err;

  const auto dump_junk = run_split(query_bin() + " dump '" + junk + "'");
  EXPECT_EQ(dump_junk.exit_code, 1);
  EXPECT_TRUE(dump_junk.out.empty()) << dump_junk.out;
  EXPECT_NE(dump_junk.err.find("unrecognized snapshot format"), std::string::npos)
      << dump_junk.err;
}

TEST_F(CliTest, QueryConnectRejectsBadEndpointSpecs) {
  for (const char* bad : {"nohost", ":4711", "host:", "host:0", "host:70000", "host:abc"}) {
    const auto r = run_split(query_bin() + " stats --connect '" + std::string(bad) + "'");
    EXPECT_EQ(r.exit_code, 2) << bad;
    EXPECT_TRUE(r.out.empty()) << bad << ": " << r.out;
    EXPECT_FALSE(r.err.empty()) << bad;
  }
  // Network subcommands without --connect are usage errors, not crashes.
  EXPECT_EQ(run(query_bin() + " stats").exit_code, 2);
  EXPECT_EQ(run(query_bin() + " watch").exit_code, 2);
}

TEST_F(CliTest, QueryDistinguishesUnreachableServerFromProtocolErrors) {
  // Connect failures are operational, not protocol: they get their own exit
  // code (3) so scripts can retry/alert differently from a data error (1).
  // Port 1 on loopback is reliably closed; --no-retry keeps this instant.
  const auto dead = run_split(query_bin() +
                              " stats --connect 127.0.0.1:1 --no-retry --timeout 500");
  EXPECT_EQ(dead.exit_code, 3) << dead.err;
  EXPECT_TRUE(dead.out.empty()) << dead.out;
  EXPECT_NE(dead.err.find("error"), std::string::npos) << dead.err;

  // The retry budget is validated up front: 0 attempts is a usage error.
  EXPECT_EQ(run(query_bin() + " stats --connect 127.0.0.1:1 --retries 0").exit_code, 2);
  EXPECT_EQ(run(query_bin() + " stats --connect 127.0.0.1:1 --retries x").exit_code, 2);
  EXPECT_EQ(run(query_bin() + " stats --connect 127.0.0.1:1 --timeout x").exit_code, 2);
}

TEST_F(CliTest, ServeResilienceFlagsSmokeEndToEnd) {
  // The overload-protection surface wired through the CLI: a daemon started
  // with keepalive, admission control, and a connection cap still answers a
  // well-behaved client, and rejects malformed flag values up front.
  EXPECT_EQ(run(serve_bin() + " --max-rps x").exit_code, 2);
  EXPECT_EQ(run(serve_bin() + " --keepalive x").exit_code, 2);
  EXPECT_EQ(run(serve_bin() + " --retry-after x").exit_code, 2);
  EXPECT_EQ(run(serve_bin() + " --max-conns 0").exit_code, 2);
  const auto no_workers = run(serve_bin() + " --workers 0");
  EXPECT_EQ(no_workers.exit_code, 2);
  EXPECT_NE(no_workers.output.find("--workers must be >= 1"), std::string::npos)
      << no_workers.output;

  const auto port_file = dir_ / "port";
  const auto log_file = dir_ / "serve.log";
  const auto pid_file = dir_ / "pid";
  const auto launch = "'" + serve_bin() + "' --port 0 --port-file '" + port_file.string() +
                      "' --max-conns 8 --timeout 2000 --keepalive 50 --max-rps 100" +
                      " --retry-after 123 --interval 1 > '" + log_file.string() +
                      "' 2>&1 & echo $! > '" + pid_file.string() + "'";
  ASSERT_EQ(std::system(launch.c_str()), 0);
  std::string port;
  for (int i = 0; i < 100 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::stringstream text(slurp(port_file));
    text >> port;
  }
  ASSERT_FALSE(port.empty()) << "daemon never wrote its port; log: " << slurp(log_file);

  const auto stats = run_split(query_bin() + " stats --connect 127.0.0.1:" + port);
  EXPECT_EQ(stats.exit_code, 0) << stats.err;
  EXPECT_NE(stats.out.find("epoch"), std::string::npos) << stats.out;

  ASSERT_TRUE(shut_down_cleanly(pid_file, log_file));
}

TEST_F(CliTest, ServePortFileIsNeverObservedPartiallyWritten) {
  // Readers poll --port-file to learn the ephemeral port; the daemon must
  // publish it atomically (write a temp file, rename into place), so every
  // observation of the path is a complete "PORT\n" — never an empty or
  // half-written file. Poll aggressively from before the daemon starts.
  const auto port_file = dir_ / "port";
  const auto log_file = dir_ / "serve.log";
  const auto pid_file = dir_ / "pid";
  const auto launch = "'" + serve_bin() + "' --port 0 --port-file '" + port_file.string() +
                      "' --interval 1 > '" + log_file.string() + "' 2>&1 & echo $! > '" +
                      pid_file.string() + "'";
  ASSERT_EQ(std::system(launch.c_str()), 0);

  std::string seen;
  bool observed = false;
  for (int i = 0; i < 2000 && !observed; ++i) {
    if (fs::exists(port_file)) {
      seen = slurp(port_file);
      // Atomic publication: existence implies complete content.
      ASSERT_FALSE(seen.empty()) << "observed an empty port file";
      observed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(observed) << "daemon never wrote its port; log: " << slurp(log_file);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back(), '\n') << "port file truncated: '" << seen << "'";
  seen.pop_back();
  ASSERT_FALSE(seen.empty());
  for (const char c : seen) {
    EXPECT_TRUE(c >= '0' && c <= '9') << "non-numeric port file: '" << seen << "'";
  }
  const auto port = std::stoul(seen);
  EXPECT_GE(port, 1u);
  EXPECT_LE(port, 65535u);
  EXPECT_FALSE(fs::exists(port_file.string() + ".tmp"))
      << "temp port file left behind";

  std::string pid;
  std::stringstream(slurp(pid_file)) >> pid;
  ASSERT_FALSE(pid.empty());
  EXPECT_EQ(std::system(("kill -TERM " + pid).c_str()), 0);
  bool clean = false;
  for (int i = 0; i < 100 && !clean; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    clean = slurp(log_file).find("shut down cleanly") != std::string::npos;
  }
  EXPECT_TRUE(clean) << "daemon did not shut down on SIGTERM; log: " << slurp(log_file);
}

TEST_F(CliTest, ServeTelemetrySurfaceEndToEnd) {
  // The observability flags together: --metrics-port publishes its bound
  // port atomically via --metrics-port-file, --metrics-dump appends JSONL
  // scrapes, and --log-level debug emits structured key=value lines — while
  // "shut down cleanly" stays greppable for scripts.
  const auto metrics_port_file = dir_ / "mport";
  const auto dump_file = dir_ / "metrics.jsonl";
  const auto log_file = dir_ / "serve.log";
  const auto pid_file = dir_ / "pid";
  const auto launch = "'" + serve_bin() + "' --port 0 --metrics-port 0 --metrics-port-file '" +
                      metrics_port_file.string() + "' --metrics-dump '" + dump_file.string() +
                      ",1' --log-level debug --interval 1 > '" + log_file.string() +
                      "' 2>&1 & echo $! > '" + pid_file.string() + "'";
  ASSERT_EQ(std::system(launch.c_str()), 0);

  // The metrics port publishes atomically, same as the serving port.
  std::string seen;
  for (int i = 0; i < 2000 && seen.empty(); ++i) {
    if (fs::exists(metrics_port_file)) seen = slurp(metrics_port_file);
    if (seen.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(seen.empty()) << "daemon never wrote its metrics port; log: " << slurp(log_file);
  const auto metrics_port = std::stoul(seen);
  EXPECT_GE(metrics_port, 1u);
  EXPECT_LE(metrics_port, 65535u);

  // The JSONL dump accumulates complete scrape lines.
  bool dumped = false;
  for (int i = 0; i < 100 && !dumped; ++i) {
    dumped = fs::exists(dump_file) &&
             slurp(dump_file).find("\"bgpcu_stream_live_tuples\":") != std::string::npos;
    if (!dumped) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(dumped) << "no metrics dump line appeared; log: " << slurp(log_file);

  std::string pid;
  std::stringstream(slurp(pid_file)) >> pid;
  ASSERT_FALSE(pid.empty());
  EXPECT_EQ(std::system(("kill -TERM " + pid).c_str()), 0);
  bool clean = false;
  for (int i = 0; i < 100 && !clean; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    clean = slurp(log_file).find("shut down cleanly") != std::string::npos;
  }
  EXPECT_TRUE(clean) << "daemon did not shut down on SIGTERM; log: " << slurp(log_file);

  // Structured breadcrumbs: startup, metrics surface, and shutdown events.
  const auto log = slurp(log_file);
  EXPECT_NE(log.find("level=info event=listening addr="), std::string::npos) << log;
  EXPECT_NE(log.find("level=info event=metrics_listening"), std::string::npos) << log;
  EXPECT_NE(log.find("level=info event=shutdown"), std::string::npos) << log;
}

TEST_F(CliTest, ServeDaemonAnswersQueryConnectEndToEnd) {
  // The real-socket end-to-end: bgpcu_serve on an ephemeral port ingests a
  // dump; bgpcu_query --connect reads stats, per-ASN class, and the full
  // snapshot over TCP.
  write_dump("updates.0001.mrt", {3356, 1299, 2914}, "203.0.113.0/24");
  const auto port_file = dir_ / "port";
  const auto log_file = dir_ / "serve.log";
  const auto pid_file = dir_ / "pid";
  const auto launch = "'" + serve_bin() + "' --port 0 --port-file '" + port_file.string() +
                      "' --token sesame --interval 1 --extension .mrt '" + dir_.string() +
                      "' > '" + log_file.string() + "' 2>&1 & echo $! > '" +
                      pid_file.string() + "'";
  ASSERT_EQ(std::system(launch.c_str()), 0);

  // Wait for the daemon to announce its port and finish the first ingest.
  std::string port;
  for (int i = 0; i < 100 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::stringstream text(slurp(port_file));
    text >> port;
  }
  ASSERT_FALSE(port.empty()) << "daemon never wrote its port; log: " << slurp(log_file);
  const auto connect = " --connect 127.0.0.1:" + port + " --token sesame";

  // The first poll may still be in flight, and queries answer only once it
  // is published: retry until the published class shows.
  SplitRunResult asn;
  for (int i = 0; i < 100; ++i) {
    asn = run_split(query_bin() + " asn 3356" + connect);
    if (asn.exit_code == 0 && asn.out.find("class tn") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(asn.exit_code, 0) << asn.err;
  EXPECT_NE(asn.out.find("AS 3356 class tn t 1 s 0 f 0 c 0"), std::string::npos) << asn.out;

  const auto stats = run_split(query_bin() + " stats" + connect);
  EXPECT_EQ(stats.exit_code, 0) << stats.err;
  EXPECT_NE(stats.out.find("epoch 0"), std::string::npos) << stats.out;
  EXPECT_EQ(stats.out.find("live_tuples 0\n"), std::string::npos) << stats.out;

  const auto dump = run_split(query_bin() + " dump" + connect);
  EXPECT_EQ(dump.exit_code, 0) << dump.err;
  EXPECT_NE(dump.out.find("# bgpcu-inference-db v1"), std::string::npos) << dump.out;
  EXPECT_NE(dump.out.find("3356 tn 1 0 0 0"), std::string::npos) << dump.out;

  // stats --json: one machine-readable object carrying the same counters.
  const auto stats_json = run_split(query_bin() + " stats --json" + connect);
  EXPECT_EQ(stats_json.exit_code, 0) << stats_json.err;
  EXPECT_EQ(stats_json.out.rfind('{', 0), 0u) << stats_json.out;
  EXPECT_NE(stats_json.out.find("\"epoch\":0"), std::string::npos) << stats_json.out;
  EXPECT_NE(stats_json.out.find("\"live_tuples\":"), std::string::npos) << stats_json.out;

  // metrics over the wire: the full registry scrape as Prometheus text.
  const auto metrics = run_split(query_bin() + " metrics" + connect);
  EXPECT_EQ(metrics.exit_code, 0) << metrics.err;
  EXPECT_NE(metrics.out.find("# TYPE bgpcu_api_queries_total counter"), std::string::npos)
      << metrics.out.substr(0, 500);
  EXPECT_NE(metrics.out.find("bgpcu_net_frames_received_total"), std::string::npos);
  EXPECT_NE(metrics.out.find("bgpcu_stream_live_tuples"), std::string::npos);

  const auto metrics_json = run_split(query_bin() + " metrics --json" + connect);
  EXPECT_EQ(metrics_json.exit_code, 0) << metrics_json.err;
  EXPECT_NE(metrics_json.out.find("\"bgpcu_stream_live_tuples\":"), std::string::npos)
      << metrics_json.out.substr(0, 500);

  // Wrong token is refused at the handshake.
  const auto denied = run_split(query_bin() + " stats --connect 127.0.0.1:" + port +
                                " --token wrong");
  EXPECT_EQ(denied.exit_code, 1);
  EXPECT_NE(denied.err.find("error"), std::string::npos) << denied.err;

  // SIGTERM shuts the daemon down cleanly. (Liveness polling via kill -0 is
  // unreliable here — the daemon is a zombie child of system()'s exited
  // shell — so the clean-shutdown log line is the termination signal.)
  std::string pid;
  std::stringstream(slurp(pid_file)) >> pid;
  ASSERT_FALSE(pid.empty());
  EXPECT_EQ(std::system(("kill -TERM " + pid).c_str()), 0);
  bool clean = false;
  for (int i = 0; i < 100 && !clean; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    clean = slurp(log_file).find("shut down cleanly") != std::string::npos;
  }
  EXPECT_TRUE(clean) << "daemon did not shut down on SIGTERM; log: " << slurp(log_file);
}

TEST_F(CliTest, ServeRejectsBadStoreFlags) {
  const auto sync = run(serve_bin() + " --store-sync fast");
  EXPECT_EQ(sync.exit_code, 2);
  EXPECT_NE(sync.output.find("--store-sync"), std::string::npos) << sync.output;
  EXPECT_EQ(run(serve_bin() + " --checkpoint-every abc").exit_code, 2);
  EXPECT_EQ(run(serve_bin() + " --data-dir").exit_code, 2);
}

TEST_F(CliTest, ServeDataDirSurvivesRestartWithEpochContinuity) {
  // Round 1: the daemon ingests one dump into a durable --data-dir,
  // checkpoints on SIGTERM, and shuts down cleanly. Round 2 reopens the same
  // directory: the epoch counter must CONTINUE (a restart is invisible to
  // consumers), the feed must resume at the recorded offsets instead of
  // re-reading round 1's file, and `history` must reach back across the
  // restart boundary.
  write_dump("updates.0001.mrt", {3356, 1299, 2914}, "203.0.113.0/24");
  const auto data_dir = dir_ / "durable";
  const auto pid_file = dir_ / "pid";

  const auto launch = [&](const std::string& tag) {
    const auto port_file = dir_ / ("port." + tag);
    const auto log_file = dir_ / ("serve." + tag + ".log");
    const auto cmd = "'" + serve_bin() + "' --port 0 --port-file '" + port_file.string() +
                     "' --data-dir '" + data_dir.string() +
                     "' --checkpoint-every 1 --interval 1 --extension .mrt '" +
                     dir_.string() + "' > '" + log_file.string() + "' 2>&1 & echo $! > '" +
                     pid_file.string() + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    std::string port;
    for (int i = 0; i < 100 && port.empty(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::stringstream text(slurp(port_file));
      text >> port;
    }
    EXPECT_FALSE(port.empty()) << "round " << tag
                               << " never wrote its port; log: " << slurp(log_file);
    return std::pair<std::string, fs::path>{port, log_file};
  };

  const auto [port1, log1] = launch("1");
  const auto connect1 = " --connect 127.0.0.1:" + port1;
  SplitRunResult stats;
  for (int i = 0; i < 100; ++i) {
    stats = run_split(query_bin() + " stats" + connect1);
    if (stats.exit_code == 0 && stats.out.find("live_tuples") != std::string::npos &&
        stats.out.find("live_tuples 0\n") == std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  EXPECT_NE(stats.out.find("epoch 0"), std::string::npos) << stats.out;
  ASSERT_TRUE(shut_down_cleanly(pid_file, log1));
  EXPECT_TRUE(fs::exists(data_dir / "MANIFEST")) << "no durable manifest written";

  // A different dump arrives while the daemon is down.
  write_dump("updates.0002.mrt", {10, 20}, "198.51.100.0/24");
  const auto [port2, log2] = launch("2");
  EXPECT_TRUE(wait_in_log(log2, "recovered epoch 0 from")) << slurp(log2);
  const auto connect2 = " --connect 127.0.0.1:" + port2;

  // Epoch continuity: the new dump lands at epoch 1, never a reset epoch 0.
  for (int i = 0; i < 100; ++i) {
    stats = run_split(query_bin() + " stats" + connect2);
    if (stats.exit_code == 0 && stats.out.find("epoch 1") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_EQ(stats.exit_code, 0) << stats.err;
  ASSERT_NE(stats.out.find("epoch 1"), std::string::npos)
      << "epoch counter reset across restart: " << stats.out;

  // Both the recovered state and the fresh ingest are served — and round 1's
  // counters did not double (the feed resumed past updates.0001.mrt).
  const auto old_asn = run_split(query_bin() + " asn 3356" + connect2);
  EXPECT_EQ(old_asn.exit_code, 0) << old_asn.err;
  EXPECT_NE(old_asn.out.find("AS 3356 class tn t 1 s 0 f 0 c 0"), std::string::npos)
      << old_asn.out;
  const auto new_asn = run_split(query_bin() + " asn 10" + connect2);
  EXPECT_EQ(new_asn.exit_code, 0) << new_asn.err;
  EXPECT_NE(new_asn.out.find("AS 10 class tn"), std::string::npos) << new_asn.out;

  // Longitudinal history served over the wire spans the restart.
  const auto history = run_split(query_bin() + " history 3356" + connect2);
  EXPECT_EQ(history.exit_code, 0) << history.err;
  EXPECT_NE(history.out.find("epoch 0 AS 3356 class tn"), std::string::npos)
      << history.out;

  ASSERT_TRUE(shut_down_cleanly(pid_file, log2));
}

TEST_F(CliTest, StoreCliVerifiesDataDirsWrittenByOlderStores) {
  // tests/data holds two data dirs from the store version that still wrote
  // ckpt-*.index images (one with them, one with that store's index mode
  // off). Both must verify clean, and inspect lists only .state and .snap.
  for (const char* fixture : {"store_legacy_index", "store_legacy_flag0"}) {
    const auto data_dir = dir_ / fixture;
    fs::copy(fs::path(BGPCU_TEST_DATA_DIR) / fixture, data_dir, fs::copy_options::recursive);
    const auto verify = run_split(store_bin() + " verify '" + data_dir.string() + "'");
    EXPECT_EQ(verify.exit_code, 0) << fixture << "\n" << verify.out << verify.err;
    EXPECT_NE(verify.out.find("verification ok"), std::string::npos) << verify.out;
    const auto inspect = run_split(store_bin() + " inspect '" + data_dir.string() + "'");
    EXPECT_EQ(inspect.exit_code, 0) << inspect.err;
    EXPECT_NE(inspect.out.find(".state"), std::string::npos) << inspect.out;
    EXPECT_NE(inspect.out.find(".snap"), std::string::npos) << inspect.out;
    EXPECT_EQ(inspect.out.find(".index"), std::string::npos) << inspect.out;
  }
}

TEST_F(CliTest, StoreCliInspectVerifyCompactAndCorruptionExitCodes) {
  // Populate a store directory with a short daemon run, then drive the
  // offline admin tool over it: inspect and verify succeed on the healthy
  // directory, compact folds the WAL into a fresh checkpoint, and one
  // flipped byte in a checkpoint file turns `verify` into exit code 1.
  write_dump("updates.0001.mrt", {3356, 1299, 2914}, "203.0.113.0/24");
  const auto data_dir = dir_ / "durable";
  const auto port_file = dir_ / "port";
  const auto log_file = dir_ / "serve.log";
  const auto pid_file = dir_ / "pid";
  const auto launch = "'" + serve_bin() + "' --port 0 --port-file '" + port_file.string() +
                      "' --data-dir '" + data_dir.string() +
                      "' --interval 1 --extension .mrt '" + dir_.string() + "' > '" +
                      log_file.string() + "' 2>&1 & echo $! > '" + pid_file.string() + "'";
  ASSERT_EQ(std::system(launch.c_str()), 0);
  std::string port;
  for (int i = 0; i < 100 && port.empty(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::stringstream text(slurp(port_file));
    text >> port;
  }
  ASSERT_FALSE(port.empty()) << slurp(log_file);
  // Wait for the ingest so the shutdown checkpoint has real state in it.
  for (int i = 0; i < 100; ++i) {
    const auto stats = run_split(query_bin() + " stats --connect 127.0.0.1:" + port);
    if (stats.exit_code == 0 && stats.out.find("live_tuples") != std::string::npos &&
        stats.out.find("live_tuples 0\n") == std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(shut_down_cleanly(pid_file, log_file));

  // Usage errors are exit 2 with a one-line usage message.
  EXPECT_EQ(run(store_bin()).exit_code, 2);
  EXPECT_EQ(run(store_bin() + " inspect").exit_code, 2);
  EXPECT_EQ(run(store_bin() + " frobnicate '" + data_dir.string() + "'").exit_code, 2);

  const auto inspect = run_split(store_bin() + " inspect '" + data_dir.string() + "'");
  EXPECT_EQ(inspect.exit_code, 0) << inspect.err;
  EXPECT_NE(inspect.out.find("manifest ok"), std::string::npos) << inspect.out;
  EXPECT_NE(inspect.out.find("checkpoint epoch 0"), std::string::npos) << inspect.out;
  EXPECT_NE(inspect.out.find("recoverable epochs 0..0"), std::string::npos) << inspect.out;

  const auto verify = run_split(store_bin() + " verify '" + data_dir.string() + "'");
  EXPECT_EQ(verify.exit_code, 0) << verify.out << verify.err;
  EXPECT_NE(verify.out.find("verification ok"), std::string::npos) << verify.out;

  const auto history = run(store_bin() + " history 3356 '" + data_dir.string() + "'");
  EXPECT_EQ(history.exit_code, 0) << history.output;
  EXPECT_NE(history.output.find("epoch 0 AS 3356 class tn"), std::string::npos)
      << history.output;

  const auto compact = run_split(store_bin() + " compact '" + data_dir.string() + "'");
  EXPECT_EQ(compact.exit_code, 0) << compact.err;
  EXPECT_NE(compact.out.find("compacted to checkpoint epoch 0"), std::string::npos)
      << compact.out;
  EXPECT_EQ(run(store_bin() + " verify '" + data_dir.string() + "'").exit_code, 0);

  // One flipped byte in the checkpoint state file: verify must fail loudly.
  fs::path victim;
  for (const auto& entry : fs::directory_iterator(data_dir)) {
    if (entry.path().extension() == ".state") victim = entry.path();
  }
  ASSERT_FALSE(victim.empty()) << "no .state checkpoint file found";
  {
    std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_GT(size, 8);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }
  const auto corrupt = run_split(store_bin() + " verify '" + data_dir.string() + "'");
  EXPECT_EQ(corrupt.exit_code, 1) << corrupt.out << corrupt.err;
  EXPECT_NE(corrupt.err.find("CORRUPT"), std::string::npos) << corrupt.err;
  EXPECT_NE(corrupt.err.find("verification FAILED"), std::string::npos) << corrupt.err;
}

}  // namespace
}  // namespace bgpcu
