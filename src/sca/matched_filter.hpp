// Matched-filter CO locator -- reimplementation of baseline [10]
// (Barenghi, Falcetti, Pelosi, "Locating side channel leakage in time
// through matched filters", Cryptography 2022).
//
// A template of the CO start is built by averaging profiling captures; the
// target trace is scanned with normalized cross-correlation and peaks above
// a threshold calibrated on the profiling data are reported as CO starts.
// The method is effective against interrupt-style noise but has no defense
// against random-delay morphing: the per-instruction jitter decorrelates
// the template within a few tens of instructions, which is exactly the
// failure Table II demonstrates.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "trace/scenario.hpp"

namespace scalocate::sca {

struct MatchedFilterConfig {
  std::size_t template_length = 256;  ///< samples of the CO start to match
  std::size_t max_templates = 64;     ///< captures averaged into the template
  /// Peak acceptance threshold; NaN = calibrate from profiling data
  /// (midpoint between the held-out true-start response and the background
  /// response).
  float threshold = std::numeric_limits<float>::quiet_NaN();
  /// Minimum distance between reported peaks, as a fraction of the mean CO
  /// length observed during fit().
  double min_distance_fraction = 0.8;
};

class MatchedFilterLocator {
 public:
  explicit MatchedFilterLocator(MatchedFilterConfig config = {});

  /// Builds the template and calibrates the detection threshold.
  void fit(const trace::CipherAcquisition& profiling);

  /// Reports CO start candidates in a new trace.
  std::vector<std::size_t> locate(std::span<const float> trace_samples) const;

  bool is_fitted() const { return fitted_; }
  std::span<const float> template_waveform() const { return template_; }
  /// Calibration diagnostic: mean NCC response at held-out true starts.
  double calibration_response() const { return calibration_response_; }

 private:
  MatchedFilterConfig config_;
  std::vector<float> template_;
  float threshold_ = 0.0f;
  double calibration_response_ = 0.0;
  double mean_co_length_ = 0.0;
  bool fitted_ = false;
};

}  // namespace scalocate::sca
