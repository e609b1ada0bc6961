// Host speed: a fixed amount of the benchmark's own work, run by the load
// threads between their operations on the load's cores, whose time shows
// how fast the host ran the benchmark at that moment.
//
// On a shared host the same binary runs up to ~40% faster or slower from
// one second or minute to the next, with CPU time per operation moving in
// step, as the other tenants' load on the cores beside ours changes. Such a phase
// slows the calibration work and the library alike, so the end-to-end
// metrics rescale their times by the HostSpeed ratios to a reference host
// (WORKLOADS.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// The mean time of one calibration unit that the end-to-end metrics are
/// rescaled to: about what the unit took on the host the baseline in
/// WORKLOADS.md was measured on. Fixed: changing it rescales every
/// end-to-end metric.
inline constexpr double kReferenceUnitS = 250e-6;

/// One calibration unit: 300 products of a 6x256 by a 256x16 float panel in
/// AVX2 FMA register tiles (portable loops without AVX2), the shape and
/// instruction mix of the library's conv GEMM micro-kernel, in L1-resident
/// panels. Across the host's slow and fast phases its time moved with the
/// library's (WORKLOADS.md). The code is the benchmark's own, so no library
/// change alters it.
void calibration_unit();

/// Restricts this thread, and every thread it starts from now on, to the
/// last `n` CPUs it may run on, so the load threads, the Engine's workers
/// and the calibration share the same cores. Returns the CPUs, or nothing
/// (and leaves the affinity alone) when fewer than `n` are allowed.
std::vector<int> pin_to_cpus(std::size_t n);

/// One load thread's calibration. pace() after each operation runs one
/// unit per kPacePeriodNs of operation time since the last calibration, so
/// the units sample the host's speed evenly over the run, on the thread's
/// own core, at a ~1% overhead.
class Pacer {
 public:
  static constexpr std::int64_t kPacePeriodNs = 25'000'000;

  Pacer();
  /// Call between operations.
  void pace();
  /// Runs `units` units now, whatever the cadence.
  void run(std::size_t units);
  const HostSpeed& speed() const { return speed_; }
  /// Time spent in calibration: the thread's wall time minus this is the
  /// time it spent on operations.
  std::int64_t wall_ns() const { return wall_ns_; }

 private:
  Cadence cadence_{kPacePeriodNs};
  std::int64_t mark_;  ///< end of the last calibration (or of construction)
  std::int64_t wall_ns_ = 0;
  HostSpeed speed_;
};

}  // namespace perfbench
