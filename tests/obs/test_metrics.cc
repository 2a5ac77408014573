// The metrics registry and its renderers: instrument semantics (lane-striped
// counters, gauge high-water marks, log-bucket histograms), registry
// interning and type conflicts, callback collectors, and the three
// renderings of one scrape (Prometheus text, flat JSON, plain listing).
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/render.h"
#include "obs/trace.h"
#include "obs/wellknown.h"

namespace bgpcu::obs {
namespace {

// --------------------------------------------------------- instruments --

TEST(CounterTest, SumsAcrossExplicitLanes) {
  Counter c;
  for (std::size_t lane = 0; lane < Counter::kLanes; ++lane) c.add(10, lane);
  c.add(5);  // thread-hash lane
  EXPECT_EQ(c.value(), 10 * Counter::kLanes + 5);
}

TEST(CounterTest, LaneIndexWrapsModuloLanes) {
  Counter c;
  c.add(1, Counter::kLanes + 3);  // same stripe as lane 3
  c.add(1, 3);
  EXPECT_EQ(c.value(), 2);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&c] {
        for (int i = 0; i < kPerThread; ++i) c.add(1);
      });
    }
  }
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddAndHighWaterMark) {
  Gauge g;
  g.set(7);
  g.add(3);
  EXPECT_EQ(g.value(), 10);
  g.max_of(8);  // below: no change
  EXPECT_EQ(g.value(), 10);
  g.max_of(25);
  EXPECT_EQ(g.value(), 25);
  g.add(-5);
  EXPECT_EQ(g.value(), 20);
}

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  // Bucket i counts observations in (2^(i-1), 2^i].
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 0u);
  EXPECT_EQ(Histogram::bucket_of(2), 1u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 2u);
  EXPECT_EQ(Histogram::bucket_of(5), 3u);
  EXPECT_EQ(Histogram::bucket_of(1024), 10u);
  EXPECT_EQ(Histogram::bucket_of(1025), 11u);
  // Far beyond the finite range: clamped to the +Inf bucket.
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_bound(10), 1024u);
}

TEST(HistogramTest, ObserveTracksSumCountAndBuckets) {
  Histogram h;
  h.observe(1);
  h.observe(3);
  h.observe(3);
  h.observe(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1007u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);  // 1000 <= 1024
}

TEST(StageTimerTest, RecordsExactlyOnce) {
  Histogram h;
  {
    StageTimer t(h);
    EXPECT_GT(t.stop() + 1, 0u);  // returns the elapsed ns
    EXPECT_EQ(t.stop(), 0u);      // second stop records nothing
  }  // destructor after stop(): still nothing
  EXPECT_EQ(h.count(), 1u);
}

// ------------------------------------------------------------ registry --

TEST(RegistryTest, InterningReturnsTheSameInstrument) {
  Registry r;
  Counter& a = r.counter("bgpcu_test_total", "help", "kind=\"x\"");
  Counter& b = r.counter("bgpcu_test_total", "help", "kind=\"x\"");
  EXPECT_EQ(&a, &b);
  Counter& other = r.counter("bgpcu_test_total", "help", "kind=\"y\"");
  EXPECT_NE(&a, &other);
}

TEST(RegistryTest, TypeConflictThrows) {
  Registry r;
  (void)r.counter("bgpcu_test_total", "help");
  EXPECT_THROW((void)r.gauge("bgpcu_test_total", "help"), std::logic_error);
  EXPECT_THROW((void)r.histogram("bgpcu_test_total", "help"), std::logic_error);
}

TEST(RegistryTest, CollectSortsFamiliesAndSeries) {
  Registry r;
  r.counter("bgpcu_zz_total", "z").add(1);
  r.counter("bgpcu_aa_total", "a", "k=\"2\"").add(2);
  r.counter("bgpcu_aa_total", "a", "k=\"1\"").add(1);
  const auto snapshot = r.collect();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "bgpcu_aa_total");
  EXPECT_EQ(snapshot[1].name, "bgpcu_zz_total");
  ASSERT_EQ(snapshot[0].series.size(), 2u);
  EXPECT_EQ(snapshot[0].series[0].labels, "k=\"1\"");
  EXPECT_EQ(snapshot[0].series[1].labels, "k=\"2\"");
}

TEST(RegistryTest, CollectorsWithSameIdentitySumAndUnregisterOnReset) {
  Registry r;
  auto c1 = r.add_collector("bgpcu_live", "live things", "", [] { return 3.0; });
  auto c2 = r.add_collector("bgpcu_live", "live things", "", [] { return 4.0; });
  auto snapshot = r.collect();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].type, MetricType::kGauge);
  ASSERT_EQ(snapshot[0].series.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot[0].series[0].value, 7.0);

  c2.reset();
  snapshot = r.collect();
  ASSERT_EQ(snapshot[0].series.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot[0].series[0].value, 3.0);

  c1.reset();
  EXPECT_TRUE(r.collect().empty());
}

TEST(RegistryTest, CollectorHandleSurvivesMove) {
  Registry r;
  ScopedCollector held;
  {
    auto inner = r.add_collector("bgpcu_live", "live", "", [] { return 1.0; });
    held = std::move(inner);
  }  // the moved-from handle must not unregister
  EXPECT_EQ(r.collect().size(), 1u);
  held.reset();
  EXPECT_TRUE(r.collect().empty());
}

TEST(RegistryTest, GlobalCatalogHasEveryFamilyGroup) {
  // The well-known catalog (obs/wellknown.h) must cover every instrumented
  // layer — this is what the acceptance scrape checks over HTTP.
  (void)metrics();  // force catalog interning
  const auto snapshot = Registry::global().collect();
  bool feed = false, stream = false, snap = false, index = false, api = false, net = false;
  for (const auto& family : snapshot) {
    feed = feed || family.name.starts_with("bgpcu_feed_");
    stream = stream || family.name.starts_with("bgpcu_stream_");
    snap = snap || family.name.starts_with("bgpcu_snapshot_");
    index = index || family.name.starts_with("bgpcu_index_");
    api = api || family.name.starts_with("bgpcu_api_");
    net = net || family.name.starts_with("bgpcu_net_");
  }
  EXPECT_TRUE(feed);
  EXPECT_TRUE(stream);
  EXPECT_TRUE(snap);
  EXPECT_TRUE(index);
  EXPECT_TRUE(api);
  EXPECT_TRUE(net);
}

// ----------------------------------------------------------- rendering --

TEST(RenderTest, FormatValueIsIntegralWhenPossible) {
  EXPECT_EQ(format_value(5), "5");
  EXPECT_EQ(format_value(0), "0");
  EXPECT_EQ(format_value(-3), "-3");
  EXPECT_NE(format_value(2.5).find('.'), std::string::npos);
}

TEST(RenderTest, PrometheusExpositionShape) {
  Registry r;
  r.counter("bgpcu_things_total", "Things that happened", "kind=\"a\"").add(3);
  r.gauge("bgpcu_depth", "Queue depth").set(2);
  auto& h = r.histogram("bgpcu_wait_ns", "Wait time");
  h.observe(1);
  h.observe(3);
  const auto text = render_prometheus(r.collect());

  EXPECT_NE(text.find("# HELP bgpcu_things_total Things that happened\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bgpcu_things_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("bgpcu_things_total{kind=\"a\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bgpcu_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("bgpcu_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bgpcu_wait_ns histogram\n"), std::string::npos);
  // Buckets are cumulative: le="1" holds 1 observation, le="4" both.
  EXPECT_NE(text.find("bgpcu_wait_ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("bgpcu_wait_ns_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("bgpcu_wait_ns_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("bgpcu_wait_ns_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("bgpcu_wait_ns_count 2\n"), std::string::npos);
  // Empty raw buckets between observations are skipped (le="2" saw nothing),
  // keeping the exposition compact.
  EXPECT_EQ(text.find("bgpcu_wait_ns_bucket{le=\"2\"}"), std::string::npos);
}

TEST(RenderTest, JsonCarriesTimestampAndEscapes) {
  Registry r;
  r.counter("bgpcu_things_total", "things", "kind=\"a\"").add(3);
  const auto snapshot = r.collect();

  const auto with_ts = render_json(snapshot, 1700000000);
  EXPECT_NE(with_ts.find("\"ts\":1700000000"), std::string::npos);
  // The label's quotes are escaped inside the JSON key.
  EXPECT_NE(with_ts.find("\"bgpcu_things_total{kind=\\\"a\\\"}\":3"), std::string::npos);

  const auto without_ts = render_json(snapshot, 0);
  EXPECT_EQ(without_ts.find("\"ts\""), std::string::npos);
}

TEST(RenderTest, PlainListingHasNoComments) {
  Registry r;
  r.counter("bgpcu_things_total", "things").add(3);
  const auto text = render_plain(r.collect());
  EXPECT_EQ(text.find('#'), std::string::npos);
  EXPECT_NE(text.find("bgpcu_things_total 3\n"), std::string::npos);
}

}  // namespace
}  // namespace bgpcu::obs
