// Alignment (final inference stage, Figure 1): cuts the input trace at the
// located CO starts and stacks fixed-length segments, producing the aligned
// trace matrix a side-channel attack (CPA) consumes.
#pragma once

#include <span>
#include <vector>

namespace scalocate::core {

struct AlignedTraces {
  /// One row per located CO, each `segment_length` samples.
  std::vector<std::vector<float>> segments;
  /// Start sample of each segment in the original trace (same order).
  std::vector<std::size_t> origins;
  std::size_t segment_length = 0;
};

/// Cuts `segment_length` samples at each located start. Starts too close to
/// the end of the trace to fit a full segment are dropped (their origin is
/// not included).
AlignedTraces align_cos(std::span<const float> trace_samples,
                        const std::vector<std::size_t>& co_starts,
                        std::size_t segment_length);

}  // namespace scalocate::core
