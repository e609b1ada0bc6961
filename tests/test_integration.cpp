// Integration test: the full training + inference pipeline of the paper on
// a reduced configuration (AES-128 under RD-2 with a small dataset and few
// epochs so the test stays within CI budgets).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "api/artifact.hpp"
#include "core/alignment.hpp"
#include "core/locator.hpp"
#include "core/metrics.hpp"
#include "trace/scenario.hpp"

namespace scalocate {
namespace {

class PipelineIntegration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    key_ = new crypto::Key16{};
    for (int i = 0; i < 16; ++i)
      (*key_)[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x10 + i);

    sc_ = new trace::ScenarioConfig{};
    sc_->cipher = crypto::CipherId::kAes128;
    sc_->random_delay = trace::RandomDelayConfig::kRd2;
    sc_->seed = 42;

    auto acq = trace::acquire_cipher_traces(*sc_, 640, *key_);
    auto noise = trace::acquire_noise_trace(*sc_, 150000);

    core::LocatorConfig lc;
    lc.params = core::PipelineParams::defaults_for(sc_->cipher);
    lc.params.epochs = 12;
    
    locator_ = new core::CoLocator(lc);
    report_ = new core::TrainReport(locator_->train(acq, noise));
  }

  static void TearDownTestSuite() {
    delete locator_;
    delete report_;
    delete sc_;
    delete key_;
  }

  static crypto::Key16* key_;
  static trace::ScenarioConfig* sc_;
  static core::CoLocator* locator_;
  static core::TrainReport* report_;
};

crypto::Key16* PipelineIntegration::key_ = nullptr;
trace::ScenarioConfig* PipelineIntegration::sc_ = nullptr;
core::CoLocator* PipelineIntegration::locator_ = nullptr;
core::TrainReport* PipelineIntegration::report_ = nullptr;

TEST_F(PipelineIntegration, TrainingReachesHighTestAccuracy) {
  EXPECT_TRUE(locator_->is_trained());
  EXPECT_GE(report_->test_confusion.accuracy(), 0.85);
  EXPECT_EQ(report_->epochs.size(), 12u);
  EXPECT_LE(report_->best_val_loss,
            report_->epochs.front().val_loss + 1e-6);
}

TEST_F(PipelineIntegration, LocatesConsecutiveCos) {
  // Hit rates at this scaled training budget land in the 50-100% band
  // depending on seed (the paper's 100% uses ~100x more training data);
  // the bound asserts the pipeline is far above the chance/baseline level.
  const auto eval = trace::acquire_eval_trace(*sc_, 24, *key_, false);
  const auto located = locator_->locate(eval.samples);
  const auto score =
      core::score_hits(located, eval.co_starts(), locator_->config().params.n_inf);
  EXPECT_GE(score.hit_rate(), 0.50);
}

TEST_F(PipelineIntegration, LocatesCosInterleavedWithNoise) {
  // Noise-interleaved localization is the harder scenario at this scaled
  // training budget (table-lookup noise phases mimic cipher windows); the
  // paper reaches 100% with ~100x more training data. See EXPERIMENTS.md.
  const auto eval = trace::acquire_eval_trace(*sc_, 24, *key_, true);
  const auto located = locator_->locate(eval.samples);
  const auto score =
      core::score_hits(located, eval.co_starts(), locator_->config().params.n_inf);
  EXPECT_GE(score.hit_rate(), 0.50);
}

TEST_F(PipelineIntegration, AlignmentProducesUsableSegments) {
  const auto eval = trace::acquire_eval_trace(*sc_, 12, *key_, false);
  const auto seg_len = static_cast<std::size_t>(locator_->mean_co_length() / 4);
  const auto aligned =
      core::align_cos(eval.samples, locator_->locate(eval.samples), seg_len);
  EXPECT_GE(aligned.segments.size(), 9u);
  for (const auto& s : aligned.segments) EXPECT_EQ(s.size(), seg_len);
}

TEST_F(PipelineIntegration, LocateReturnsAtMostOneStartPerRawEdge) {
  // Placement moves each raw rising edge and dedup may drop some, but
  // locate never adds a start: it returns at most one per raw edge.
  const auto eval = trace::acquire_eval_trace(*sc_, 6, *key_, false);
  const auto& params = locator_->config().params;
  const core::SlidingWindowClassifier classifier(locator_->model(),
                                                 params.n_inf, params.stride);
  const auto seg = core::Segmenter(locator_->segmenter_config())
                       .segment(classifier.classify(eval.samples));
  const auto located = locator_->locate(eval.samples);
  ASSERT_FALSE(located.empty());
  EXPECT_LE(located.size(), seg.co_starts.size());
}

TEST_F(PipelineIntegration, ModelSaveLoadKeepsPredictions) {
  // The artifact round trip restores the calibration along with the
  // weights, so the reloaded locator places COs exactly where the trained
  // one does, not merely scores windows alike.
  const auto path =
      (std::filesystem::temp_directory_path() / "scalocate_locator.scart")
          .string();
  locator_->export_artifact(path);
  const core::CoLocator clone = api::load_artifact(path);
  std::remove(path.c_str());

  const auto& params = locator_->config().params;
  const auto eval = trace::acquire_eval_trace(*sc_, 4, *key_, false);
  core::SlidingWindowClassifier ca(locator_->model(), params.n_inf,
                                   params.stride);
  core::SlidingWindowClassifier cb(clone.model(), params.n_inf, params.stride);
  const auto sa = ca.classify(eval.samples);
  const auto sb = cb.classify(eval.samples);
  ASSERT_EQ(sa.scores.size(), sb.scores.size());
  // Bit patterns, not a ULP tolerance: the artifact contract is byte
  // identity.
  for (std::size_t i = 0; i < sa.scores.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(sa.scores[i]),
              std::bit_cast<std::uint32_t>(sb.scores[i]))
        << "window " << i;

  EXPECT_EQ(clone.calibration_offset(), locator_->calibration_offset());
  const auto located = locator_->locate(eval.samples);
  ASSERT_FALSE(located.empty());
  EXPECT_EQ(clone.locate(eval.samples), located);
}

TEST_F(PipelineIntegration, CalibrationOffsetIsSmall) {
  // After two-stage calibration the residual lead should be well under one
  // inference window.
  EXPECT_LT(std::llabs(static_cast<long long>(locator_->fine_offset())),
            static_cast<long long>(locator_->config().params.n_inf));
}

}  // namespace
}  // namespace scalocate
