// Layer probes of the traced run: per-leaf forward and backward self
// times of the AES model, the Adam step, allocation and compute-task
// counts per forward, conv throughput and window standardization.
#pragma once

#include "common.hpp"
#include "harness.hpp"

namespace perfbench {

/// Measures the nn and kernels layers from outside, on windows of
/// `capture` (an AES-128 capture), and adds their metrics to `report`.
/// Everything runs at `serving_threads` intra-op threads, the budget the
/// workloads score and train at, except the compute-task count, which
/// measures the fork/join a caller at the process default pays.
void run_layer_probes(Models& models, const Capture& capture,
                      std::size_t serving_threads, Report& report);

}  // namespace perfbench
