// Tests for the Segmentation stage (Section III-D), the post-scoring
// Detector every locate path runs, and the metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/signal.hpp"
#include "core/detector.hpp"
#include "core/metrics.hpp"
#include "core/segmentation.hpp"

namespace scalocate::core {
namespace {

SlidingWindowResult make_swc(std::vector<float> scores, std::size_t stride,
                             std::size_t window = 64) {
  SlidingWindowResult r;
  r.scores = std::move(scores);
  r.stride = stride;
  r.window = window;
  return r;
}

TEST(Segmenter, LocatesPlateauRisingEdges) {
  // Background -3, two 6-window plateaus at indices 10 and 30.
  std::vector<float> scores(48, -3.f);
  for (int i = 10; i < 16; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 30; i < 36; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  SegmenterConfig cfg;
  cfg.threshold = 0.0f;
  cfg.median_filter_k = 3;
  const auto seg = Segmenter(cfg).segment(make_swc(scores, 100));
  EXPECT_EQ(seg.co_starts, (std::vector<std::size_t>{1000, 3000}));
  EXPECT_EQ(seg.threshold_used, 0.0f);
  EXPECT_EQ(seg.median_k_used, 3u);

  // A score exactly at the threshold counts as high.
  for (int i = 30; i < 36; ++i) scores[static_cast<std::size_t>(i)] = 0.f;
  EXPECT_EQ(Segmenter(cfg).segment(make_swc(scores, 100)).co_starts,
            (std::vector<std::size_t>{1000, 3000}));
}

TEST(Segmenter, MedianFilterRemovesGlitches) {
  std::vector<float> scores(40, -3.f);
  scores[5] = 3.f;  // single-window glitch
  for (int i = 20; i < 28; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  SegmenterConfig cfg;
  cfg.threshold = 0.0f;
  cfg.median_filter_k = 3;
  const auto seg = Segmenter(cfg).segment(make_swc(scores, 10));
  EXPECT_EQ(seg.co_starts, (std::vector<std::size_t>{200}));
}

TEST(Segmenter, PlateauAtStartIsReported) {
  std::vector<float> scores(20, -3.f);
  for (int i = 0; i < 6; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  SegmenterConfig cfg;
  cfg.threshold = 0.0f;
  cfg.median_filter_k = 3;
  const auto seg = Segmenter(cfg).segment(make_swc(scores, 10));
  ASSERT_EQ(seg.co_starts.size(), 1u);
  EXPECT_EQ(seg.co_starts[0], 0u);

  // An all-high wave is one plateau from window 0.
  const std::vector<float> all_high(20, 3.f);
  EXPECT_EQ(Segmenter(cfg).segment(make_swc(all_high, 10)).co_starts,
            (std::vector<std::size_t>{0}));
}

TEST(Segmenter, EmptyInputYieldsNothing) {
  const auto seg = Segmenter(SegmenterConfig{}).segment(make_swc({}, 10));
  EXPECT_TRUE(seg.co_starts.empty());

  // An all-low wave has no rising edge either.
  SegmenterConfig cfg;
  cfg.threshold = 0.0f;
  cfg.median_filter_k = 3;
  const std::vector<float> all_low(20, -3.f);
  EXPECT_TRUE(Segmenter(cfg).segment(make_swc(all_low, 10)).co_starts.empty());
}

TEST(Segmenter, AutoMedianKIsOddAndClamped) {
  EXPECT_EQ(Segmenter::auto_median_k(1), 3u);
  EXPECT_EQ(Segmenter::auto_median_k(8), 5u);
  EXPECT_EQ(Segmenter::auto_median_k(100), 11u);
  for (std::size_t p : {1u, 2u, 5u, 9u, 33u})
    EXPECT_EQ(Segmenter::auto_median_k(p) % 2, 1u);
}

TEST(Segmenter, OtsuSeparatesBimodalScores) {
  std::vector<float> scores;
  for (int i = 0; i < 100; ++i)
    scores.push_back(-5.f + 0.01f * static_cast<float>(i));
  for (int i = 0; i < 100; ++i)
    scores.push_back(5.f + 0.01f * static_cast<float>(i));
  const float th = Segmenter::otsu_threshold(scores);
  EXPECT_GT(th, -4.2f);
  EXPECT_LT(th, 5.0f);
}

TEST(Segmenter, AutoThresholdViaNaN) {
  std::vector<float> scores(30, -4.f);
  for (int i = 10; i < 20; ++i) scores[static_cast<std::size_t>(i)] = 4.f;
  SegmenterConfig cfg;  // threshold NaN -> Otsu
  cfg.median_filter_k = 3;
  const auto seg = Segmenter(cfg).segment(make_swc(scores, 10));
  EXPECT_GT(seg.threshold_used, -4.0f);
  EXPECT_LT(seg.threshold_used, 4.0f);
  EXPECT_EQ(seg.co_starts, (std::vector<std::size_t>{100}));
}

TEST(Segmenter, MergeGapBridgesShortPlateauSplits) {
  // Plateau 10..16, two-window dip, plateau 18..24 — the shape interrupt
  // preemption / gain steps leave behind.
  std::vector<float> scores(40, -3.f);
  for (int i = 10; i < 16; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 18; i < 24; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  SegmenterConfig cfg;
  cfg.threshold = 0.0f;
  cfg.median_filter_k = 1;  // identity filter: the dip reaches the scan
  const auto split = Segmenter(cfg).segment(make_swc(scores, 10));
  EXPECT_EQ(split.co_starts, (std::vector<std::size_t>{100, 180}));

  cfg.merge_gap_windows = 2;
  const auto merged = Segmenter(cfg).segment(make_swc(scores, 10));
  EXPECT_EQ(merged.co_starts, (std::vector<std::size_t>{100}));
}

TEST(Segmenter, MergeGapKeepsGenuinelySeparatePlateaus) {
  std::vector<float> scores(40, -3.f);
  for (int i = 5; i < 11; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 20; i < 26; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  SegmenterConfig cfg;
  cfg.threshold = 0.0f;
  cfg.median_filter_k = 1;
  cfg.merge_gap_windows = 2;  // gap of 9 windows stays a real separation
  const auto seg = Segmenter(cfg).segment(make_swc(scores, 10));
  EXPECT_EQ(seg.co_starts, (std::vector<std::size_t>{50, 200}));
}

TEST(Segmenter, MergeGapBridgesDipAfterFrontPlateau) {
  std::vector<float> scores(20, -3.f);
  for (int i = 0; i < 4; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  for (int i = 6; i < 10; ++i) scores[static_cast<std::size_t>(i)] = 3.f;
  SegmenterConfig cfg;
  cfg.threshold = 0.0f;
  cfg.median_filter_k = 1;
  cfg.merge_gap_windows = 2;
  const auto seg = Segmenter(cfg).segment(make_swc(scores, 10));
  // The window-0 plateau and its resumption are one CO at sample 0.
  EXPECT_EQ(seg.co_starts, (std::vector<std::size_t>{0}));
}

TEST(Segmenter, OtsuClippedRangeShrugsOffOutliers) {
  // Bimodal mass at -5 and +5 with AGC-style outlier spikes: the unclipped
  // histogram squashes the real modes into a couple of bins.
  std::vector<float> scores;
  for (int i = 0; i < 100; ++i)
    scores.push_back(-5.f + 0.01f * static_cast<float>(i));
  for (int i = 0; i < 100; ++i)
    scores.push_back(5.f + 0.01f * static_cast<float>(i));
  scores.push_back(1000.f);
  scores.push_back(-1000.f);
  const float clipped = Segmenter::otsu_threshold(scores, 2.0);
  EXPECT_GT(clipped, -5.0f);
  EXPECT_LT(clipped, 5.1f);
  // Zero clip is exactly the legacy overload.
  EXPECT_EQ(Segmenter::otsu_threshold(scores, 0.0),
            Segmenter::otsu_threshold(scores));
  EXPECT_THROW(Segmenter::otsu_threshold(scores, 50.0), Error);
}

TEST(Segmenter, OtsuRejectsNonFiniteScores) {
  std::vector<float> scores = {-4.f, -3.f, 3.f, 4.f};
  scores.push_back(std::numeric_limits<float>::quiet_NaN());
  EXPECT_THROW(Segmenter::otsu_threshold(scores), InvalidArgument);
  EXPECT_THROW(Segmenter::otsu_threshold(scores, 5.0), InvalidArgument);
  scores.back() = std::numeric_limits<float>::infinity();
  EXPECT_THROW(Segmenter::otsu_threshold(scores), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Detector: the one implementation of the post-scoring stages
// ---------------------------------------------------------------------------

/// Seeded scores with plateau structure: runs of high and low windows,
/// sign glitches inside runs, and some scores exactly at the threshold 0.
std::vector<float> random_scores(Rng& rng, std::size_t n) {
  std::vector<float> scores(n);
  bool high = false;
  for (float& s : scores) {
    if (rng.bernoulli(0.15)) high = !high;
    const bool level = rng.bernoulli(0.1) ? !high : high;
    s = rng.bernoulli(0.05) ? 0.0f
                            : static_cast<float>(rng.uniform(0.1, 2.0)) *
                                  (level ? 1.0f : -1.0f);
  }
  return scores;
}

/// Batch statement of the stages: threshold with >=, signal::median_filter,
/// then rising edges of the filtered wave (a high window 0 counts) unless
/// the low run before them is at most `merge_gap` windows.
std::vector<std::size_t> reference_edges(std::span<const float> scores,
                                         float threshold, std::size_t k,
                                         std::size_t merge_gap,
                                         std::size_t stride) {
  std::vector<float> square(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i)
    square[i] = scores[i] >= threshold ? 1.0f : -1.0f;
  const auto filtered = signal::median_filter(square, k);
  std::vector<std::size_t> edges;
  if (!filtered.empty() && filtered[0] > 0.0f) edges.push_back(0);
  std::optional<std::size_t> last_fall;
  for (std::size_t i = 1; i < filtered.size(); ++i) {
    if (filtered[i - 1] >= 0.0f && filtered[i] < 0.0f) {
      last_fall = i;
    } else if (filtered[i - 1] < 0.0f && filtered[i] >= 0.0f) {
      if (last_fall && i - *last_fall <= merge_gap) continue;
      edges.push_back(i * stride);
    }
  }
  return edges;
}

std::vector<std::size_t> starts_of(const std::vector<Detection>& ds) {
  std::vector<std::size_t> out;
  out.reserve(ds.size());
  for (const Detection& d : ds) out.push_back(d.start);
  return out;
}

TEST(Detector, IncrementalEdgesMatchBatchReference) {
  constexpr std::size_t kStride = 7;
  for (const std::size_t k : {1u, 3u, 5u, 11u}) {
    for (const std::size_t gap : {0u, 2u}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 1000 + k * 10 + gap);
        const auto scores = random_scores(rng, 300);
        const auto expected = reference_edges(scores, 0.0f, k, gap, kStride);
        const std::string where = "k=" + std::to_string(k) +
                                  " gap=" + std::to_string(gap) +
                                  " seed=" + std::to_string(seed);
        ASSERT_FALSE(expected.empty()) << where;

        DetectorConfig cfg;
        cfg.stride = kStride;
        cfg.median_k = k;
        cfg.merge_gap = gap;

        Detector whole(cfg);
        whole.push(scores);
        std::vector<Detection> at_once;
        whole.advance({}, 0, /*eof=*/true, at_once);
        EXPECT_EQ(starts_of(at_once), expected) << where;

        Detector pieces(cfg);
        std::vector<Detection> streamed;
        for (std::size_t pos = 0; pos < scores.size();) {
          const auto n = std::min<std::size_t>(
              static_cast<std::size_t>(rng.uniform_int(1, 17)),
              scores.size() - pos);
          pieces.push(std::span<const float>(scores).subspan(pos, n));
          pieces.advance({}, 0, /*eof=*/false, streamed);
          pos += n;
        }
        pieces.advance({}, 0, /*eof=*/true, streamed);
        EXPECT_EQ(starts_of(streamed), expected) << where;
        for (const Detection& d : streamed) EXPECT_EQ(d.raw_edge, d.start);
      }
    }
  }
}

TEST(Detector, TrimmedSamplesGiveSameDetections) {
  // A stream-shaped run: window i covers samples [i*stride, i*stride +
  // window) and is scored once they have all arrived; the caller keeps
  // only the samples at or above oldest_needed().
  constexpr std::size_t kStride = 8;
  constexpr std::size_t kWindow = 64;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    std::vector<float> trace(12000);
    for (float& x : trace) x = static_cast<float>(rng.normal());
    const std::size_t n_windows = (trace.size() - kWindow) / kStride + 1;
    const auto scores = random_scores(rng, n_windows);
    const std::vector<float> tmpl(trace.begin() + 500, trace.begin() + 532);

    DetectorConfig cfg;
    cfg.stride = kStride;
    cfg.median_k = 3;
    cfg.merge_gap = 1;
    cfg.coarse_offset = rng.uniform_int(-50, 150);
    cfg.fine_template = tmpl;
    // Wider than the filter lag (as n_inf + 4*stride is for a locator), so
    // edges wait in the queue for their snap region.
    cfg.search_radius = kWindow + 4 * kStride;
    cfg.fine_offset = rng.uniform_int(-150, 150);
    cfg.min_separation = 60;

    Detector whole(cfg);
    whole.push(scores);
    std::vector<Detection> expected;
    whole.advance(trace, 0, /*eof=*/true, expected);
    ASSERT_GT(expected.size(), 5u) << "seed=" << seed;

    Detector pieces(cfg);
    std::vector<Detection> streamed;
    std::size_t head = 0, scored = 0, begin = 0;
    while (head < trace.size()) {
      head = std::min(trace.size(),
                      head + static_cast<std::size_t>(rng.uniform_int(1, 300)));
      const std::size_t ready =
          head < kWindow ? 0 : (head - kWindow) / kStride + 1;
      pieces.push(
          std::span<const float>(scores).subspan(scored, ready - scored));
      scored = ready;
      const std::span<const float> resident(trace.data() + begin, head - begin);
      pieces.advance(resident, begin, /*eof=*/false, streamed);
      const std::size_t keep_from = std::min(pieces.oldest_needed(), head);
      ASSERT_GE(keep_from, begin) << "seed=" << seed;  // trimming is final
      begin = keep_from;
    }
    pieces.advance(std::span<const float>(trace).subspan(begin), begin,
                   /*eof=*/true, streamed);
    EXPECT_GT(begin, trace.size() / 2) << "seed=" << seed;
    ASSERT_EQ(streamed.size(), expected.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(streamed[i].start, expected[i].start) << "seed=" << seed;
      EXPECT_EQ(streamed[i].raw_edge, expected[i].raw_edge) << "seed=" << seed;
    }
  }
}

TEST(Detector, DedupKeepsAStartExactlyMinSeparationAfterTheLastKept) {
  // High runs from windows 0, 10 and 16 (stride 10): raw edges 0, 100, 160.
  std::vector<float> scores(24, -1.f);
  for (const std::size_t i : {0u, 1u, 10u, 11u, 16u, 17u}) scores[i] = 1.f;
  DetectorConfig cfg;
  cfg.stride = 10;
  cfg.min_separation = 100;
  Detector det(cfg);
  det.push(scores);
  std::vector<Detection> out;
  det.advance({}, 0, /*eof=*/true, out);
  EXPECT_EQ(starts_of(out), (std::vector<std::size_t>{0, 100}));
}

TEST(Detector, PlaceWaitsForTheSnapRegionAndRejectsDiscardedSamples) {
  std::vector<float> trace(1000);
  for (std::size_t i = 0; i < trace.size(); ++i)
    trace[i] = static_cast<float>(i % 37);
  DetectorConfig cfg;
  cfg.fine_template = std::span<const float>(trace).subspan(200, 16);
  cfg.search_radius = 50;
  const Detector det(cfg);

  // Edge 300 snaps within [250, 350 + 16): wait until sample 366 arrives.
  const std::span<const float> all(trace);
  EXPECT_FALSE(det.place(300, all.first(365), 0, /*eof=*/false).has_value());
  EXPECT_TRUE(det.place(300, all.first(366), 0, /*eof=*/false).has_value());
  // A region below the resident samples is an error, not a silent miss.
  EXPECT_THROW(det.place(300, all.subspan(260), 260, /*eof=*/true),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ConfusionMatrix, RatesAndAccuracy) {
  ConfusionMatrix cm;
  for (int i = 0; i < 90; ++i) cm.add(0, 0);
  for (int i = 0; i < 10; ++i) cm.add(0, 1);
  for (int i = 0; i < 30; ++i) cm.add(1, 1);
  for (int i = 0; i < 10; ++i) cm.add(1, 0);
  EXPECT_DOUBLE_EQ(cm.rate(0, 0), 0.9);
  EXPECT_DOUBLE_EQ(cm.rate(1, 1), 0.75);
  EXPECT_DOUBLE_EQ(cm.true_negative_rate(), 0.9);
  EXPECT_DOUBLE_EQ(cm.true_positive_rate(), 0.75);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 120.0 / 140.0);
  EXPECT_EQ(cm.total(), 140u);
}

TEST(ConfusionMatrix, EmptyRatesAreZero) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.rate(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
}

TEST(ConfusionMatrix, RenderContainsPercentages) {
  ConfusionMatrix cm;
  cm.add(0, 0);
  cm.add(1, 1);
  const auto s = cm.render("AES");
  EXPECT_NE(s.find("AES"), std::string::npos);
  EXPECT_NE(s.find("100.00%"), std::string::npos);
}

TEST(ConfusionMatrix, InvalidLabelThrows) {
  ConfusionMatrix cm;
  EXPECT_THROW(cm.add(2, 0), Error);
}

TEST(HitScore, ExactMatches) {
  const auto s = score_hits({100, 200, 300}, {100, 200, 300}, 10);
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.false_alarms, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(s.mean_abs_error, 0.0);
}

TEST(HitScore, ToleranceWindow) {
  const auto s = score_hits({105, 250}, {100, 200}, 10);
  EXPECT_EQ(s.hits, 1u);           // 105 matches 100; 250 too far from 200
  EXPECT_EQ(s.false_alarms, 1u);
  EXPECT_DOUBLE_EQ(s.mean_abs_error, 5.0);
}

TEST(HitScore, EachDetectionMatchesOnce) {
  // One detection cannot satisfy two true starts.
  const auto s = score_hits({100}, {95, 105}, 20);
  EXPECT_EQ(s.hits, 1u);
}

TEST(HitScore, MissedAndEmpty) {
  const auto s = score_hits({}, {100, 200}, 10);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.0);
  const auto t = score_hits({5}, {}, 10);
  EXPECT_EQ(t.false_alarms, 1u);
  EXPECT_DOUBLE_EQ(t.hit_rate(), 0.0);
}

TEST(HitScore, NearestDetectionWins) {
  const auto s = score_hits({98, 110}, {100}, 20);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_DOUBLE_EQ(s.mean_abs_error, 2.0);  // 98 is closer than 110
  EXPECT_EQ(s.false_alarms, 1u);
}

}  // namespace
}  // namespace scalocate::core
