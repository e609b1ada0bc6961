// Noise-application workload generator.
//
// The paper's noise trace comes from "the execution of multiple subsequent
// applications different from the CO". We synthesize such applications as
// instruction streams with realistic phase behaviour: each program is a
// sequence of phases (memory bursts, ALU loops, table-driven code, branchy
// control flow, idle spins), each phase emitting a characteristic opcode
// mix. Table-lookup phases intentionally contain kSbox/kLoad bursts so the
// "not-a-CO" class is not trivially separable by opcode alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/event.hpp"

namespace scalocate::trace {

/// Kinds of synthetic application phases.
enum class NoisePhase : std::uint8_t {
  kMemoryBurst,   ///< load/store heavy (memcpy-like)
  kAluLoop,       ///< arithmetic/xor/shift loop
  kTableLookup,   ///< table-driven code (checksum/compression-like)
  kBranchy,       ///< control-flow heavy
  kIdle,          ///< low-activity spin (nop/branch)
  kMixed,         ///< uniform mixture of everything
  kCount,
};

/// Generates noise-application instruction streams.
class NoiseAppGenerator {
 public:
  explicit NoiseAppGenerator(std::uint64_t seed);

  /// Emits one whole application of roughly `approx_instructions`
  /// instructions (several random phases) through `emit(event)`.
  template <typename EmitFn>
  void run_app(std::size_t approx_instructions, EmitFn&& emit) {
    std::size_t remaining = approx_instructions;
    while (remaining > 0) {
      const auto phase = static_cast<NoisePhase>(
          rng_.next_below(static_cast<std::uint64_t>(NoisePhase::kCount)));
      const std::size_t phase_len = std::min<std::size_t>(
          remaining,
          static_cast<std::size_t>(rng_.uniform_int(32, 256)));
      run_phase(phase, phase_len, emit);
      remaining -= phase_len;
    }
  }

  /// Emits `instructions` of one specific phase.
  template <typename EmitFn>
  void run_phase(NoisePhase phase, std::size_t instructions, EmitFn&& emit) {
    for (std::size_t i = 0; i < instructions; ++i) emit(next_event(phase, i));
  }

 private:
  crypto::DataEvent next_event(NoisePhase phase, std::size_t position);

  Rng rng_;
};

}  // namespace scalocate::trace
