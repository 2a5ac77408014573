#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace bgpcu::obs {

namespace detail {

std::size_t thread_lane(std::size_t lanes) noexcept {
  static thread_local const std::size_t hashed =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return hashed % lanes;
}

}  // namespace detail

// --------------------------------------------------------- ScopedCollector --

ScopedCollector& ScopedCollector::operator=(ScopedCollector&& other) noexcept {
  if (this != &other) {
    reset();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void ScopedCollector::reset() {
  if (registry_ != nullptr) registry_->remove_collector(id_);
  registry_ = nullptr;
  id_ = 0;
}

// ------------------------------------------------------------------ Registry --

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry::Instrument& Registry::intern(std::string_view name, std::string_view help,
                                       std::string_view labels, MetricType type) {
  std::string key;
  key.reserve(name.size() + 1 + labels.size());
  key.append(name);
  key.push_back('\0');
  key.append(labels);

  const std::lock_guard lock(mutex_);
  const auto it = instruments_.find(key);
  if (it != instruments_.end()) {
    if (it->second.type != type) {
      throw std::logic_error("metric '" + std::string(name) +
                             "' re-registered with a different type");
    }
    return it->second;
  }
  Instrument instrument;
  instrument.name = name;
  instrument.help = help;
  instrument.labels = labels;
  instrument.type = type;
  switch (type) {
    case MetricType::kCounter:
      instrument.counter = std::make_unique<Counter>();
      break;
    case MetricType::kGauge:
      instrument.gauge = std::make_unique<Gauge>();
      break;
    case MetricType::kHistogram:
      instrument.histogram = std::make_unique<Histogram>();
      break;
  }
  return instruments_.emplace(std::move(key), std::move(instrument)).first->second;
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           std::string_view labels) {
  return *intern(name, help, labels, MetricType::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       std::string_view labels) {
  return *intern(name, help, labels, MetricType::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::string_view labels) {
  return *intern(name, help, labels, MetricType::kHistogram).histogram;
}

ScopedCollector Registry::add_collector(std::string_view name, std::string_view help,
                                        std::string_view labels, std::function<double()> fn) {
  const std::lock_guard lock(mutex_);
  const auto id = next_collector_id_++;
  collectors_.emplace(id, CollectorEntry{std::string(name), std::string(help),
                                         std::string(labels), std::move(fn)});
  return {this, id};
}

void Registry::remove_collector(std::uint64_t id) {
  const std::lock_guard lock(mutex_);
  collectors_.erase(id);
}

Snapshot Registry::collect() const {
  // Accumulate series keyed by (family, labels); the map key ordering gives
  // the sorted output directly. Held across collector callbacks — see the
  // mutex_ comment in the header for why that is the synchronization model.
  struct SeriesAcc {
    MetricType type = MetricType::kGauge;
    std::string help;
    double value = 0;
    std::optional<HistogramData> hist;
  };
  std::map<std::string, std::map<std::string, SeriesAcc>> families;

  const std::lock_guard lock(mutex_);
  for (const auto& [key, instrument] : instruments_) {
    auto& acc = families[instrument.name][instrument.labels];
    acc.type = instrument.type;
    if (acc.help.empty()) acc.help = instrument.help;
    switch (instrument.type) {
      case MetricType::kCounter:
        acc.value += static_cast<double>(instrument.counter->value());
        break;
      case MetricType::kGauge:
        acc.value += static_cast<double>(instrument.gauge->value());
        break;
      case MetricType::kHistogram: {
        HistogramData data;
        data.buckets.resize(Histogram::kBuckets);
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          data.buckets[i] = instrument.histogram->bucket(i);
        }
        data.count = instrument.histogram->count();
        data.sum = instrument.histogram->sum();
        acc.hist = std::move(data);
        break;
      }
    }
  }
  for (const auto& [id, entry] : collectors_) {
    auto& acc = families[entry.name][entry.labels];
    acc.type = MetricType::kGauge;
    if (acc.help.empty()) acc.help = entry.help;
    acc.value += entry.fn();
  }

  Snapshot snapshot;
  snapshot.reserve(families.size());
  for (auto& [name, series_map] : families) {
    Family family;
    family.name = name;
    family.series.reserve(series_map.size());
    for (auto& [labels, acc] : series_map) {
      family.type = acc.type;
      if (family.help.empty()) family.help = acc.help;
      Series series;
      series.labels = labels;
      series.value = acc.value;
      series.hist = std::move(acc.hist);
      family.series.push_back(std::move(series));
    }
    snapshot.push_back(std::move(family));
  }
  return snapshot;
}

}  // namespace bgpcu::obs
