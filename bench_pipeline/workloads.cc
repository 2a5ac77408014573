#include "workloads.h"

#include <unistd.h>

#include <chrono>
#include <fstream>

#include "stats.h"

namespace bgpcu::benchpipe {

double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

RssSampler::RssSampler()
    : thread_([this] {
        while (!stop_.load()) {
          samples_mb_.push_back(resident_mb());
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

RssSampler::~RssSampler() { (void)stop(); }

std::vector<double> RssSampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return samples_mb_;
}

std::vector<Metric> end_to_end_metrics(const HostSpeed& host,
                                       const std::vector<TimedSample>& primary_ms,
                                       const std::vector<TimedSample>& secondary_ms,
                                       const std::vector<TimedSample>& setup_s,
                                       const std::vector<double>& rss_mb,
                                       std::vector<Reading>& readings) {
  const auto primary = summarize(host.at_reference(primary_ms));
  const auto secondary = summarize(host.at_reference(secondary_ms));
  const auto setup = summarize(host.at_reference(setup_s));
  const auto rss = summarize(rss_mb);
  readings.push_back({"primary_p75_ms", primary.q3});
  readings.push_back({"primary_p90_ms", primary.p90});
  readings.push_back({"primary_p99_ms", primary.p99});
  readings.push_back({"secondary_p50_ms", secondary.p50});
  readings.push_back({"secondary_p90_ms", secondary.p90});
  readings.push_back({"host_probe_ms", host.median_probe_ms()});
  readings.push_back({"raw_primary_p50_ms", summarize(values_of(primary_ms)).p50});
  readings.push_back({"raw_secondary_mean_ms", summarize(values_of(secondary_ms)).mean});
  readings.push_back({"raw_setup_s", summarize(values_of(setup_s)).p50});
  return {
      {"primary_p50_ms", "ms", primary.p50, primary},
      {"secondary_mean_ms", "ms", secondary.mean, secondary},
      {"setup_s", "s", setup.p50, setup},
      {"rss_mb", "MB", rss.p50, rss},
  };
}

}  // namespace bgpcu::benchpipe
