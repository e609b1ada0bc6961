// Tests of the benchmark's own arithmetic.
#include "harness.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

Span span(const std::string& name, std::int64_t start, std::int64_t end,
          std::int64_t parent, bool replay = false) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.replay = replay;
  return s;
}

TEST(SpanSelfTime, NestedChildrenSubtractTheirCoverage) {
  // api.job [0,100) holds core.a [10,30) and core.b [40,70); core.b holds
  // nn.forward [45,65).
  const std::vector<Span> spans = {
      span("api.job", 0, 100, -1), span("core.a", 10, 30, 0),
      span("core.b", 40, 70, 0), span("nn.forward", 45, 65, 2)};
  EXPECT_EQ(SpanRecorder::self_times(spans)[0], 50);
  EXPECT_EQ(SpanRecorder::self_times(spans)[1], 20);
  EXPECT_EQ(SpanRecorder::self_times(spans)[2], 10);
  EXPECT_EQ(SpanRecorder::self_times(spans)[3], 20);
  const auto layers = SpanRecorder::self_by_layer(spans);
  EXPECT_DOUBLE_EQ(layers.at("api"), 50.0);
  EXPECT_DOUBLE_EQ(layers.at("core"), 30.0);
  EXPECT_DOUBLE_EQ(layers.at("nn"), 20.0);
  // Self times of a nested tree sum to the root's duration.
  EXPECT_DOUBLE_EQ(layers.at("api") + layers.at("core") + layers.at("nn"),
                   100.0);
}

TEST(SpanSelfTime, OverlappingNestedChildrenCountOnce) {
  // Two children on other threads overlap in [20,30) and one pokes out of
  // the parent's interval: coverage is the clipped union [10,40) = 30.
  const std::vector<Span> spans = {span("api.job", 0, 40, -1),
                                   span("core.a", 10, 30, 0),
                                   span("core.b", 20, 50, 0)};
  EXPECT_EQ(SpanRecorder::self_times(spans)[0], 10);
}

TEST(SpanSelfTime, ReplayedChildrenSubtractTheirDuration) {
  // runtime.feed [0,100) has a replayed core child timed later, [500,560),
  // which itself has a replayed nn child of 40 and a nested one of 5.
  const std::vector<Span> spans = {
      span("runtime.feed", 0, 100, -1), span("core.score", 500, 560, 0, true),
      span("nn.forward", 600, 640, 1, true), span("kernels.std", 505, 510, 1)};
  EXPECT_EQ(SpanRecorder::self_times(spans)[0], 40);
  EXPECT_EQ(SpanRecorder::self_times(spans)[1], 15);
  EXPECT_EQ(SpanRecorder::self_times(spans)[2], 40);
  const auto layers = SpanRecorder::self_by_layer(spans);
  double sum = 0.0;
  for (const auto& [layer, ns] : layers) sum += ns;
  EXPECT_DOUBLE_EQ(sum, 100.0);
}

TEST(SpanRecorder, OpenCloseRecordsParentAndRequest) {
  SpanRecorder rec;
  const std::int64_t root = rec.open("api.job", -1, 7);
  const std::int64_t child = rec.open("core.classify", root, 7, true);
  rec.close(child);
  rec.close(root);
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_TRUE(spans[1].replay);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_EQ(layer_of("kernels.conv.conv0"), "kernels");
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 990), 10u);
  EXPECT_EQ(samples_beyond(100, 900), 10u);  // exact in integers
  EXPECT_EQ(tail_per_mille(10000), 999u);
  EXPECT_EQ(tail_per_mille(9999), 990u);
  EXPECT_EQ(tail_per_mille(1000), 990u);
  EXPECT_EQ(tail_per_mille(999), 900u);
  EXPECT_EQ(tail_per_mille(100), 900u);
  EXPECT_EQ(tail_per_mille(99), 750u);
  EXPECT_EQ(tail_per_mille(40), 750u);
  EXPECT_EQ(tail_per_mille(39), 0u);
  EXPECT_EQ(tail_per_mille(0), 0u);
}

TEST(PercentileRule, SummaryReportsMedianTailAndCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(static_cast<double>(i));
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_EQ(s.tail_pm, 990u);
  EXPECT_NEAR(s.tail, 990.01, 1e-9);
  const LatencySummary few = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.count, 3u);
  EXPECT_DOUBLE_EQ(few.p50, 2.0);
  EXPECT_EQ(few.tail_pm, 0u);
}

TEST(FailureAccounting, WrongReferenceIsCountedAndExitsNonzero) {
  const std::vector<std::vector<std::size_t>> truth = {{10, 200}, {5}, {}};
  std::vector<std::vector<std::size_t>> wrong = truth;
  for (auto& r : wrong) r.push_back(0);  // a deliberately wrong reference
  Tally good;
  Tally bad;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    good.check(truth[i] == truth[i], "op");
    bad.check(truth[i] == wrong[i], "op" + std::to_string(i));
  }
  EXPECT_EQ(good.exit_code(), 0);
  EXPECT_DOUBLE_EQ(good.failed_fraction(), 0.0);
  EXPECT_EQ(bad.attempted(), 3u);
  EXPECT_EQ(bad.failed(), 3u);
  EXPECT_DOUBLE_EQ(bad.failed_fraction(), 1.0);
  EXPECT_NE(bad.exit_code(), 0);
  EXPECT_EQ(bad.notes().size(), 3u);
  // One failure among many still fails the run.
  Tally one;
  for (int i = 0; i < 99; ++i) one.check(true, "ok");
  one.check(false, "bad");
  EXPECT_DOUBLE_EQ(one.failed_fraction(), 0.01);
  EXPECT_NE(one.exit_code(), 0);
  // Nothing checked is not a pass.
  EXPECT_NE(Tally().exit_code(), 0);
}

TEST(ClosureCheck, LayersMustSumToTheUntracedOperation) {
  const std::map<std::string, double> layers = {
      {"api", 100.0}, {"core", 300.0}, {"nn", 600.0}};
  // 2 ops of 500 ns each traced; untraced op 520 ns: -3.8% closes.
  Closure c = check_closure(layers, 2, 520.0, 0.25, 0.05);
  EXPECT_DOUBLE_EQ(c.layers_per_op_ns, 500.0);
  EXPECT_NEAR(c.error, -20.0 / 520.0, 1e-12);
  EXPECT_TRUE(c.ok);
  // 40% off does not.
  c = check_closure(layers, 2, 834.0, 0.25, 0.05);
  EXPECT_FALSE(c.ok);
  // No operations or no untraced time cannot close.
  EXPECT_FALSE(check_closure(layers, 0, 500.0, 0.25, 0.05).ok);
  EXPECT_FALSE(check_closure(layers, 2, 0.0, 0.25, 0.05).ok);
}

TEST(ClosureCheck, NegativeSelfTimeHasItsOwnTolerance) {
  // A replayed child 30 ns (6% of the 500 ns op) slower than the call
  // inside the library leaves its parent at -30 ns per op. The sum still
  // closes exactly, but the attribution is wrong.
  const std::map<std::string, double> slow_replay = {
      {"api", -60.0}, {"core", 160.0}, {"nn", 900.0}};
  Closure c = check_closure(slow_replay, 2, 500.0, 0.25, 0.05);
  EXPECT_NEAR(c.error, 0.0, 1e-12);
  EXPECT_FALSE(c.ok);
  // 4% below zero is within a 5% tolerance.
  const std::map<std::string, double> small = {
      {"api", -40.0}, {"core", 140.0}, {"nn", 900.0}};
  EXPECT_TRUE(check_closure(small, 2, 500.0, 0.25, 0.05).ok);
}

TEST(ClosureCheck, ReplayedTreeSumsToItsRootByConstruction) {
  // However slow the replays are, the self times of a tree sum to the
  // root's duration: the sum alone cannot catch a mistimed layer.
  const std::vector<Span> spans = {
      span("api.job", 0, 100, -1), span("core.classify", 200, 330, 0, true),
      span("nn.forward", 400, 520, 1, true)};
  const auto layers = SpanRecorder::self_by_layer(spans);
  EXPECT_DOUBLE_EQ(layers.at("api") + layers.at("core") + layers.at("nn"),
                   100.0);
  const Closure c = check_closure(layers, 1, 100.0, 0.25, 0.05);
  EXPECT_NEAR(c.error, 0.0, 1e-12);
  EXPECT_FALSE(c.ok);  // api is at -30%
}

TEST(HostSpeed, RatiosRescaleToTheReferenceHost) {
  // Units took 1.25 ms against 1 ms on the reference host: the host ran at
  // 0.8 of its speed, so 10 s measured is 8 reference seconds and 100
  // samples/s measured is 125 on the reference host.
  HostSpeed a;
  a.unit_wall_s = {1.25e-3, 1.25e-3, 1.25e-3, 1.25e-3, 1.25e-3};
  a.unit_cpu_s = {1.0e-3, 1.0e-3, 1.0e-3, 1.0e-3, 1.0e-3};
  HostSpeed pooled;
  pooled.add(a);
  pooled.add(a);
  EXPECT_EQ(pooled.unit_wall_s.size(), 10u);
  EXPECT_DOUBLE_EQ(pooled.wall_ratio(1.0e-3), 0.8);
  EXPECT_DOUBLE_EQ(10.0 * pooled.wall_ratio(1.0e-3), 8.0);
  EXPECT_DOUBLE_EQ(100.0 / pooled.wall_ratio(1.0e-3), 125.0);
  EXPECT_DOUBLE_EQ(pooled.cpu_ratio(1.0e-3), 1.0);
  // A run too short to owe a unit is not rescaled.
  EXPECT_DOUBLE_EQ(HostSpeed{}.wall_ratio(1.0e-3), 1.0);
}

TEST(HostSpeed, TheRatioFollowsTheMeanUnit) {
  // Half the run at full speed, half at 0.8 of it: units take 1 ms and
  // 1.25 ms in equal numbers, and the run as a whole went at 1 / 1.125.
  HostSpeed h;
  h.unit_wall_s = {1.0e-3, 1.25e-3, 1.0e-3, 1.25e-3};
  EXPECT_DOUBLE_EQ(h.wall_ratio(1.0e-3), 1.0 / 1.125);
  EXPECT_DOUBLE_EQ(h.cpu_ratio(1.0e-3), 1.0);  // no CPU times recorded
}

TEST(HostSpeed, CadenceOwesOneUnitPerPeriodAndCarriesTheRest) {
  Cadence c(25);
  EXPECT_EQ(c.owed(10), 0u);
  EXPECT_EQ(c.owed(20), 1u);   // 30: one unit, 5 carried
  EXPECT_EQ(c.owed(100), 4u);  // 105: four units, 5 carried
  EXPECT_EQ(c.owed(19), 0u);   // 24
  EXPECT_EQ(c.owed(1), 1u);    // 25
}

TEST(Report, JsonLineHasTheResultKeys) {
  Report r;
  r.metric("setup_s", 0.0125, "s");
  r.metric("op_p50_ms", 1.5, "ms");
  EXPECT_EQ(r.json(true, 10, 0),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.012500000000000001, "
            "\"unit\": \"s\"}, \"op_p50_ms\": {\"value\": 1.5, \"unit\": "
            "\"ms\"}}}");
}

TEST(Digest, OrderAndValueSensitive) {
  EXPECT_NE(digest({1, 2}), digest({2, 1}));
  EXPECT_NE(digest({1}), digest({1, 0}));
  EXPECT_EQ(digest({42, 7}), digest({42, 7}));
}

}  // namespace
}  // namespace perfbench
