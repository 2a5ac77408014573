// The one result shape every workload reports through:
//
//   - the result line, the last line of standard output:
//       {"correct":true,"attempted":N,"failed":F,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//     holding the end-to-end metrics (untraced run) or the per-layer metrics
//     (traced run);
//   - a detail record (--out FILE, one JSON object per line, appended) with
//     host metadata, the seed, and n / median / quartiles per metric, plus the
//     run's validity readings. bench_pipeline/run.py --compare reads these.
//
// Numbers are printed in the shortest form that reads back to the same
// double, so no digit of a measurement is rounded away.
#ifndef BGPCU_BENCH_PIPELINE_REPORT_H
#define BGPCU_BENCH_PIPELINE_REPORT_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace bgpcu::benchpipe {

/// One reported metric. `dist` describes the samples behind `value` when
/// there are several (value is then one of its statistics).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  Summary dist;
};

/// A reading that qualifies the run (generator lag, backlog, coverage) but
/// is not a metric the benchmark gates on.
struct Reading {
  std::string name;
  double value = 0;
};

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":" + std::string(correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(metrics[i].name) + ":{\"value\":" + json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

/// Host and build facts recorded with every detail record.
struct HostInfo {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;  ///< Empty when the checkout is not a git repository.
};

inline std::string detail_record(const std::string& workload, std::uint64_t seed,
                                 double seconds, bool traced, const HostInfo& host,
                                 bool correct, std::uint64_t attempted, std::uint64_t failed,
                                 const std::vector<Metric>& metrics,
                                 const std::vector<Reading>& readings,
                                 const std::vector<std::string>& errors) {
  std::string out = "{\"workload\":" + json_string(workload) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"seconds\":" + json_number(seconds) +
                    ",\"traced\":" + (traced ? "true" : "false") +
                    ",\"host\":{\"nproc\":" + std::to_string(host.nproc) +
                    ",\"compiler\":" + json_string(host.compiler) +
                    ",\"build_type\":" + json_string(host.build_type) +
                    ",\"commit\":" + json_string(host.commit) + "}" +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    if (i > 0) out += ',';
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + ",\"n\":" + std::to_string(m.dist.n) +
           ",\"median\":" + json_number(m.dist.p50) + ",\"q1\":" + json_number(m.dist.q1) +
           ",\"q3\":" + json_number(m.dist.q3) + "}";
  }
  out += "},\"readings\":{";
  for (std::size_t i = 0; i < readings.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(readings[i].name) + ":" + json_number(readings[i].value);
  }
  out += "},\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(errors[i]);
  }
  return out + "]}";
}

}  // namespace bgpcu::benchpipe

#endif  // BGPCU_BENCH_PIPELINE_REPORT_H
