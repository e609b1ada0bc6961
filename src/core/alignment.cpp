#include "core/alignment.hpp"

#include "common/error.hpp"

namespace scalocate::core {

AlignedTraces align_cos(std::span<const float> trace_samples,
                        const std::vector<std::size_t>& co_starts,
                        std::size_t segment_length) {
  detail::require(segment_length >= 1, "align_cos: segment_length must be >= 1");
  AlignedTraces out;
  out.segment_length = segment_length;
  for (std::size_t start : co_starts) {
    if (start + segment_length > trace_samples.size()) continue;
    out.segments.emplace_back(
        trace_samples.begin() + static_cast<std::ptrdiff_t>(start),
        trace_samples.begin() + static_cast<std::ptrdiff_t>(start + segment_length));
    out.origins.push_back(start);
  }
  return out;
}

}  // namespace scalocate::core
