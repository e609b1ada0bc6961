// Oscilloscope acquisition model.
//
// Stands in for the Picoscope 5244d used by the paper: the clean power
// waveform from the PowerModel is corrupted by additive white Gaussian
// measurement noise and a slow baseline drift (supply/temperature wander),
// then quantized by a 12-bit ADC over a fixed full-scale range -- the
// artifacts a trained locator must be robust to.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace scalocate::trace {

struct AcquisitionConfig {
  double noise_sigma = 0.08;     ///< white measurement noise (signal units)
  double drift_amplitude = 0.03; ///< peak of the slow baseline wander
  double drift_period = 50000;   ///< samples per drift oscillation
  int adc_bits = 12;             ///< Picoscope 5244d resolution
  double full_scale_min = -0.5;  ///< ADC range lower bound (signal units)
  double full_scale_max = 2.0;   ///< ADC range upper bound
  bool enable_quantization = true;
  /// AGC-style gain steps: with probability `gain_step_prob` per sample the
  /// front-end gain jumps to a fresh uniform value in [gain_min, gain_max]
  /// and stays there until the next step. The gain multiplies the clean
  /// signal before drift/noise/quantization, modeling an auto-ranging
  /// amplifier re-ranging mid-capture. 0 disables (gain pinned at 1).
  double gain_step_prob = 0.0;
  double gain_min = 1.0;
  double gain_max = 1.0;
};

/// Applies the measurement chain to a clean trace, in place.
class AcquisitionModel {
 public:
  AcquisitionModel(AcquisitionConfig config, std::uint64_t seed);

  /// Processes `samples` as one continuous capture; the drift phase
  /// persists across calls so split renders stay coherent.
  void apply(std::vector<float>& samples);

  const AcquisitionConfig& config() const { return config_; }

 private:
  AcquisitionConfig config_;
  Rng rng_;
  std::uint64_t sample_index_ = 0;  // global phase for the drift term
  double gain_ = 1.0;               // persists across apply() calls
};

}  // namespace scalocate::trace
