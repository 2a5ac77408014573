// --selftest: pins the measurement code to hand-computed answers on fixed
// synthetic inputs — quantile math, span self time (nested children,
// overlapping children, a child sticking out of its parent, a span with no
// parent), per-layer shares, the host-speed adjustment, and the result
// line's JSON shape. A wrong
// percentile or self time would silently skew every number the benchmark
// prints, so it gets checked before the numbers are trusted.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "host_speed.h"
#include "layers.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace bgpcu::benchpipe {

namespace {

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::abs(got - want) > 1e-9) {
    std::fprintf(stderr, "selftest FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++g_failures;
  }
}

void expect_eq(const char* what, const std::string& got, const std::string& want) {
  if (got != want) {
    std::fprintf(stderr, "selftest FAIL %s:\n  got  %s\n  want %s\n", what, got.c_str(),
                 want.c_str());
    ++g_failures;
  }
}

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const auto& m : metrics) {
    if (m.name == name) return m.value;
  }
  std::fprintf(stderr, "selftest FAIL: metric %s missing\n", name.c_str());
  ++g_failures;
  return 0;
}

void check_quantiles() {
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  expect_near("p50 of 1..10", quantile_sorted(ten, 0.5), 5.5);
  expect_near("p90 of 1..10", quantile_sorted(ten, 0.9), 9.1);
  expect_near("q1 of 1..10", quantile_sorted(ten, 0.25), 3.25);
  expect_near("q3 of 1..10", quantile_sorted(ten, 0.75), 7.75);
  expect_near("p0 of 1..10", quantile_sorted(ten, 0.0), 1.0);
  expect_near("p100 of 1..10", quantile_sorted(ten, 1.0), 10.0);
  const std::vector<double> one = {42};
  expect_near("p90 of one sample", quantile_sorted(one, 0.9), 42.0);
  expect_near("p50 of nothing", quantile_sorted({}, 0.5), 0.0);

  const auto s = summarize({5, 1, 4, 2, 3});
  expect_near("summary n", static_cast<double>(s.n), 5);
  expect_near("summary mean", s.mean, 3);
  expect_near("summary p50", s.p50, 3);
  expect_near("summary p90", s.p90, 4.6);
  expect_near("summary q1", s.q1, 2);
  expect_near("summary q3", s.q3, 4);
}

void check_self_time() {
  // root [0,100]: A [10,30] and B [20,50] overlap; C [12,18] nests in A;
  // D [90,120] sticks out past the root's end. E [200,260] has no parent.
  const std::vector<Span> spans = {
      {"root", 1, kNoSpan, 0, 100}, {"A", 1, 0, 10, 30},   {"B", 1, 0, 20, 50},
      {"C", 1, 1, 12, 18},          {"D", 1, 0, 90, 120},  {"E", 2, kNoSpan, 200, 260},
  };
  const auto self = self_times(spans);
  expect_near("root self (union of overlapping children)", static_cast<double>(self[0]), 50);
  expect_near("A self (nested child)", static_cast<double>(self[1]), 14);
  expect_near("B self (leaf)", static_cast<double>(self[2]), 30);
  expect_near("C self (leaf)", static_cast<double>(self[3]), 6);
  expect_near("D self (outside parent, no children)", static_cast<double>(self[4]), 30);
  expect_near("E self (no parent)", static_cast<double>(self[5]), 60);

  const auto totals = totals_by_name(spans);
  expect_near("totals root self", totals.at("root").self_ns, 50);
  expect_near("totals A duration", totals.at("A").durations_ms.at(0), 20e-6);
}

void check_shares() {
  // Two reps of 100 ns: core.run covers 40 + 60, mrt.load_file 30 + 0.
  const std::vector<Span> spans = {
      {"rep", 0, kNoSpan, 0, 100},       {"core.run", 0, 0, 0, 40},
      {"mrt.load_file", 0, 0, 40, 70},   {"rep", 1, kNoSpan, 1000, 1100},
      {"core.run", 1, 3, 1000, 1060},
  };
  LayerInputs in;
  in.spans = spans;
  in.roots = {"rep"};
  const auto metrics = layer_metrics(in);
  expect_near("core.run share", metric(metrics, "core.run.share_pct"), 50);
  expect_near("mrt.load_file share", metric(metrics, "mrt.load_file.share_pct"), 15);
  expect_near("unattributed share", metric(metrics, "unattributed.share_pct"), 35);
  expect_near("api.publish share (absent)", metric(metrics, "api.publish.share_pct"), 0);
}

void check_host_speed() {
  // Probes at 0 s (1 ms), 0.5 s (3 ms), 0.9 s (2 ms) and 10 s (8 ms). A
  // sample at 0.2 s sees the first three (median 2 ms); one at 5 s sees none
  // and takes the run's median (2.5 ms); one at 10.5 s sees only the last.
  HostSpeed host;
  const auto t0 = Clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  host.record(at(0.0), 1);
  host.record(at(0.5), 3);
  host.record(at(0.9), 2);
  host.record(at(10.0), 8);
  const auto adjusted = host.at_reference({{at(0.2), 10}, {at(5.0), 10}, {at(10.5), 10}});
  expect_near("adjusted, probes within 1 s", adjusted.at(0), 10 * kReferenceProbeMs / 2);
  expect_near("adjusted, no probe within 1 s", adjusted.at(1), 10 * kReferenceProbeMs / 2.5);
  expect_near("adjusted, one probe within 1 s", adjusted.at(2), 10 * kReferenceProbeMs / 8);
  expect_near("run median probe", host.median_probe_ms(), 2.5);
}

void check_report() {
  expect_eq("shortest double", json_number(0.1), "0.1");
  expect_eq("integral double", json_number(1203), "1203");
  std::vector<Metric> metrics = {{"latency_ms", "ms", 1.25, {}}, {"setup_s", "s", 0.5, {}}};
  expect_eq("result line", result_line(true, 10, 0, metrics),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"
            "\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},"
            "\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}");
}

}  // namespace

int run_selftest() {
  check_quantiles();
  check_self_time();
  check_shares();
  check_host_speed();
  check_report();
  if (g_failures == 0) std::printf("selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace bgpcu::benchpipe
