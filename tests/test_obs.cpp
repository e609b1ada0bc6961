// Telemetry subsystem tests: lock-free counter/gauge semantics under
// concurrency, histogram bucket math and quantiles against a sorted-vector
// oracle, the system-wide exact percentile, span nesting and trace rings,
// registry snapshot determinism and JSON round trips through the parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace scalocate {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge
// ---------------------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);

  counter.add(42);
  EXPECT_EQ(counter.value(), kThreads * kPerThread + 42);
}

TEST(ObsGauge, TracksLevelAndHighWatermark) {
  obs::Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.max(), 0);

  gauge.add(3);
  gauge.add(2);
  EXPECT_EQ(gauge.value(), 5);
  gauge.sub(4);
  EXPECT_EQ(gauge.value(), 1);
  // The watermark survives the drop.
  EXPECT_EQ(gauge.max(), 5);
  gauge.set(9);
  EXPECT_EQ(gauge.value(), 9);
  EXPECT_EQ(gauge.max(), 9);
  gauge.set(-2);
  EXPECT_EQ(gauge.value(), -2);
  EXPECT_EQ(gauge.max(), 9);
}

TEST(ObsGauge, ConcurrentBalancedAddSubReturnsToZero) {
  obs::Gauge gauge;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 10000; ++i) {
        gauge.add();
        gauge.sub();
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_GE(gauge.max(), 1);
  EXPECT_LE(gauge.max(), kThreads);
}

// ---------------------------------------------------------------------------
// Exact percentile (the system-wide implementation)
// ---------------------------------------------------------------------------

TEST(ObsPercentile, EdgeCases) {
  EXPECT_EQ(obs::percentile_sorted({}, 0.5), 0.0);
  const std::vector<double> one{7.0};
  EXPECT_EQ(obs::percentile_sorted(one, 0.0), 7.0);
  EXPECT_EQ(obs::percentile_sorted(one, 0.5), 7.0);
  EXPECT_EQ(obs::percentile_sorted(one, 1.0), 7.0);
  // q clamps rather than reading out of range.
  const std::vector<double> two{1.0, 2.0};
  EXPECT_EQ(obs::percentile_sorted(two, -3.0), 1.0);
  EXPECT_EQ(obs::percentile_sorted(two, 42.0), 2.0);
}

TEST(ObsPercentile, LinearInterpolationRank) {
  // pos = q * (n - 1): for n = 5, q = 0.25 lands exactly on index 1.
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 1.0), 50.0);
  // Between ranks: q = 0.1 -> pos 0.4 -> 10 + 0.4 * 10.
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 0.1), 14.0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundsContainTheirValues) {
  // Every probed value must fall inside [lower(i), lower(i+1)) of its own
  // bucket, and the midpoint must too.
  std::vector<std::uint64_t> probes{0, 1, 15, 16, 17, 255, 256, 1000,
                                    (1ull << 32) - 1, 1ull << 32,
                                    (1ull << 63) + 12345};
  Rng rng(5);
  for (int i = 0; i < 200; ++i)
    probes.push_back(static_cast<std::uint64_t>(
        std::exp(rng.uniform() * 40.0)));  // log-uniform over ~17 octaves
  for (const std::uint64_t v : probes) {
    const std::size_t idx = obs::Histogram::bucket_index(v);
    ASSERT_LT(idx, obs::Histogram::kBuckets);
    EXPECT_GE(v, obs::Histogram::bucket_lower(idx)) << "value " << v;
    if (idx + 1 < obs::Histogram::kBuckets) {
      EXPECT_LT(v, obs::Histogram::bucket_lower(idx + 1)) << "value " << v;
    }
    const std::uint64_t mid = obs::Histogram::bucket_midpoint(idx);
    EXPECT_EQ(obs::Histogram::bucket_index(mid), idx) << "value " << v;
  }
}

TEST(ObsHistogram, EmptySnapshot) {
  obs::Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(ObsHistogram, SmallValuesAreExact) {
  // Below 2^kSubBits every value has its own unit bucket, so quantiles are
  // exact, not approximate.
  obs::Histogram h;
  for (std::uint64_t v : {3u, 1u, 4u, 1u, 5u, 9u, 2u, 6u}) h.record(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 8u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 9u);
  EXPECT_EQ(s.quantile(0.0), 1.0);
  EXPECT_EQ(s.quantile(1.0), 9.0);
  // q=0.5 over 8 samples {1,1,2,3,4,5,6,9} sits at position 0.5 * 7 = 3.5,
  // between 3 and 4; midpoints are the values themselves in the unit range.
  EXPECT_NEAR(s.quantile(0.5), 4.0, 1.0);
}

TEST(ObsHistogram, QuantileInterpolatesLikePercentileSorted) {
  // Few samples, all in exact unit buckets: every quantile must equal the
  // sorted-vector answer, fractional ranks interpolated. With two samples,
  // p99 sits next to the larger one, not at the smaller.
  for (const std::vector<double>& samples :
       {std::vector<double>{3, 9}, std::vector<double>{2, 5, 7, 11}}) {
    obs::Histogram h;
    for (const double v : samples) h.record(static_cast<std::uint64_t>(v));
    const auto s = h.snapshot();
    for (const double q : {0.1, 0.25, 0.5, 0.9, 0.99})
      EXPECT_DOUBLE_EQ(s.quantile(q), obs::percentile_sorted(samples, q))
          << "q = " << q;
  }
}

TEST(ObsHistogram, QuantilesMatchSortedOracleWithinBucketResolution) {
  // Log-uniform samples spanning microseconds..minutes in ns; every
  // quantile answered from the buckets must be within the documented
  // relative error of the exact sorted-vector answer (2^-(kSubBits+1)
  // midpoint error, doubled for the rank landing one bucket over).
  Rng rng(23);
  obs::Histogram h;
  std::vector<double> oracle;
  oracle.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double ns = std::exp(rng.uniform() * (std::log(1e11) - std::log(1e3)) +
                               std::log(1e3));
    const auto v = static_cast<std::uint64_t>(ns);
    h.record(v);
    oracle.push_back(static_cast<double>(v));
  }
  std::sort(oracle.begin(), oracle.end());
  const auto s = h.snapshot();
  ASSERT_EQ(s.count, oracle.size());

  const double rel = 2.0 / static_cast<double>(obs::Histogram::kSubBuckets);
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const double exact = obs::percentile_sorted(oracle, q);
    const double approx = s.quantile(q);
    EXPECT_NEAR(approx, exact, rel * exact) << "q = " << q;
  }
  // Tails are exact by construction.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), oracle.front());
  EXPECT_DOUBLE_EQ(s.quantile(1.0), oracle.back());
  // Mean is exact (sum and count are tracked outside the buckets).
  double acc = 0.0;
  for (const double v : oracle) acc += v;
  EXPECT_NEAR(s.mean(), acc / static_cast<double>(oracle.size()),
              1e-6 * s.mean());
}

TEST(ObsHistogram, ConcurrentRecordingLosesNothing) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t * kPerThread + i));
    });
  for (auto& t : threads) t.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, static_cast<std::uint64_t>(kThreads * kPerThread - 1));
  std::uint64_t bucket_total = 0;
  for (const auto b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(ObsHistogram, SnapshotMergeAddsDistributions) {
  obs::Histogram a, b;
  for (std::uint64_t v = 1; v <= 100; ++v) a.record(v);
  for (std::uint64_t v = 1000; v <= 1100; ++v) b.record(v);
  auto sa = a.snapshot();
  const auto sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.count, 201u);
  EXPECT_EQ(sa.min, 1u);
  EXPECT_EQ(sa.max, 1100u);
  // Median of the merged set: rank 100 of 201 is the high block's first
  // sample (indices 0..99 hold 1..100), answered within bucket resolution.
  EXPECT_NEAR(sa.quantile(0.5), 1000.0, 1000.0 / 16.0);
  // The low block's top sits right at the 49.75th percentile.
  EXPECT_NEAR(sa.quantile(0.49), 100.0, 100.0 / 16.0);
}

// ---------------------------------------------------------------------------
// Spans + trace ring
// ---------------------------------------------------------------------------

TEST(ObsSpan, RecordsIntoHistogramOnDestruction) {
  obs::Histogram h;
  {
    obs::SpanTimer span(h);
    EXPECT_EQ(h.snapshot().count, 0u) << "records at scope exit, not entry";
  }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(ObsSpan, NestingDepthAndContainment) {
  obs::Histogram h;
  obs::TraceRing ring(16);
  {
    obs::SpanTimer outer(h, &ring, "outer");
    EXPECT_EQ(outer.depth(), 0u);
    {
      obs::SpanTimer inner(h, &ring, "inner");
      EXPECT_EQ(inner.depth(), 1u);
      {
        obs::SpanTimer leaf(h, &ring, "leaf");
        EXPECT_EQ(leaf.depth(), 2u);
      }
    }
    {
      obs::SpanTimer sibling(h, &ring, "sibling");
      EXPECT_EQ(sibling.depth(), 1u) << "depth reuses freed levels";
    }
  }
  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 4u);
  // Completion order: leaf, inner, sibling, outer.
  EXPECT_EQ(events[0].name, "leaf");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].depth, 0u);
  // The outer span contains every inner one in time.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(events[i].start_ns, events[3].start_ns);
    EXPECT_LE(events[i].start_ns + events[i].duration_ns,
              events[3].start_ns + events[3].duration_ns);
  }
  EXPECT_EQ(h.snapshot().count, 4u);
}

TEST(ObsTraceRing, OverwritesOldestAtCapacity) {
  obs::TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::string name("e");
    name += std::to_string(i);
    ring.push({name, i, 1, 0});
  }
  EXPECT_EQ(ring.total_pushed(), 10u);
  const auto events = ring.dump();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first dump of the survivors: e6..e9.
  for (std::size_t i = 0; i < 4; ++i) {
    // += form sidesteps gcc 12's spurious -Wrestrict on the inlined append.
    std::string expect("e");
    expect += std::to_string(6 + i);
    EXPECT_EQ(events[i].name, expect);
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.requests");
  a.add(5);
  // Same name resolves to the same instrument...
  EXPECT_EQ(&reg.counter("x.requests"), &a);
  EXPECT_EQ(reg.counter("x.requests").value(), 5u);
  // ...and stays valid as later registrations land around it.
  for (int i = 0; i < 100; ++i)
    reg.counter("x.other" + std::to_string(i)).add();
  EXPECT_EQ(a.value(), 5u);
  // Kinds are separate namespaces at the type level.
  reg.gauge("x.requests").set(3);
  EXPECT_EQ(reg.counter("x.requests").value(), 5u);
}

TEST(ObsRegistry, SnapshotIndependentOfRegistrationOrder) {
  // Two registries with the same instruments and values, registered in
  // opposite orders, must render byte-identical snapshots.
  obs::Registry forward, backward;
  const std::vector<std::string> names{"b.count", "a.count", "c.count"};
  for (auto it = names.begin(); it != names.end(); ++it)
    forward.counter(*it).add(7);
  for (auto it = names.rbegin(); it != names.rend(); ++it)
    backward.counter(*it).add(7);
  forward.histogram("z.latency_ns").record(1000);
  backward.histogram("z.latency_ns").record(1000);
  forward.gauge("q.depth").set(2);
  backward.gauge("q.depth").set(2);

  EXPECT_EQ(forward.render_json(), backward.render_json());
  EXPECT_EQ(forward.render_text(), backward.render_text());
}

TEST(ObsRegistry, JsonRoundTripThroughParser) {
  obs::Registry reg;
  reg.counter("engine.aes128.requests").add(12);
  reg.counter("kernels.gemm.flops").add(123456789012345ull);
  reg.gauge("engine.aes128.queue_depth").set(4);
  reg.gauge("engine.aes128.queue_depth").sub(3);
  auto& h = reg.histogram("engine.aes128.latency_ns");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 1000);

  const std::string doc = reg.render_json();
  const auto parsed = obs::JsonValue::parse(doc);

  // Dotted metric names are leaf keys; at_path reaches them via greedy
  // longest-key matching (bench_check thresholds rely on this).
  const auto* requests = parsed.at_path("counters.engine.aes128.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->integer, 12u);
  const auto* flops = parsed.find("counters")->find("kernels.gemm.flops");
  ASSERT_NE(flops, nullptr);
  // Large counters survive exactly (the parser keeps integer tokens).
  EXPECT_TRUE(flops->is_integer);
  EXPECT_EQ(flops->integer, 123456789012345ull);

  const auto* depth =
      parsed.find("gauges")->find("engine.aes128.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->find("value")->number, 1.0);
  EXPECT_EQ(depth->find("max")->number, 4.0);

  const auto* lat = parsed.find("histograms")->find("engine.aes128.latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->number, 1000.0);
  const auto live = h.snapshot();
  EXPECT_DOUBLE_EQ(lat->find("p50")->number, live.quantile(0.5));
  EXPECT_DOUBLE_EQ(lat->find("p999")->number, live.quantile(0.999));
  EXPECT_DOUBLE_EQ(lat->find("min")->number,
                   static_cast<double>(live.min));
}

TEST(ObsJson, WriterEscapesAndParserUnescapes) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("weird \"key\"\n", "tab\there \\ done");
  w.end_object();
  const auto parsed = obs::JsonValue::parse(w.str());
  ASSERT_TRUE(parsed.is_object());
  ASSERT_EQ(parsed.object.size(), 1u);
  EXPECT_EQ(parsed.object[0].first, "weird \"key\"\n");
  EXPECT_EQ(parsed.object[0].second.string, "tab\there \\ done");
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW(obs::JsonValue::parse(""), InvalidArgument);
  EXPECT_THROW(obs::JsonValue::parse("{"), InvalidArgument);
  EXPECT_THROW(obs::JsonValue::parse("{\"a\": }"), InvalidArgument);
  EXPECT_THROW(obs::JsonValue::parse("[1, 2,]"), InvalidArgument);
  EXPECT_THROW(obs::JsonValue::parse("{} trailing"), InvalidArgument);
  EXPECT_THROW(obs::JsonValue::parse("nul"), InvalidArgument);
}

TEST(ObsJson, AtPathWalksObjectsAndArrays) {
  const auto doc = obs::JsonValue::parse(
      R"({"rows": [{"p99_ms": 4.5}, {"p99_ms": 9.0}], "n": 2})");
  ASSERT_NE(doc.at_path("rows.1.p99_ms"), nullptr);
  EXPECT_DOUBLE_EQ(doc.at_path("rows.1.p99_ms")->number, 9.0);
  EXPECT_EQ(doc.at_path("rows.2.p99_ms"), nullptr);
  EXPECT_EQ(doc.at_path("rows.x"), nullptr);
  EXPECT_EQ(doc.at_path("missing"), nullptr);
  EXPECT_DOUBLE_EQ(doc.at_path("n")->number, 2.0);
}

TEST(ObsJson, AtPathGreedyLongestKeyMatch) {
  // Dotted keys resolve as single steps, longest match first, and the walk
  // continues past them into their children.
  const auto doc = obs::JsonValue::parse(
      R"({"gauges": {"engine.aes.queue_depth": {"value": 1, "max": 4}},
          "a": {"b": 1}, "a.b": 2})");
  ASSERT_NE(doc.at_path("gauges.engine.aes.queue_depth.max"), nullptr);
  EXPECT_DOUBLE_EQ(doc.at_path("gauges.engine.aes.queue_depth.max")->number,
                   4.0);
  // Longest match wins when both "a.b" and "a"->"b" exist.
  EXPECT_DOUBLE_EQ(doc.at_path("a.b")->number, 2.0);
  EXPECT_EQ(doc.at_path("gauges.engine.aes.queue_depth.missing"), nullptr);
}

}  // namespace
}  // namespace scalocate
