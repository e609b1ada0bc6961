#include "trace/noise_apps.hpp"

#include "common/error.hpp"

namespace scalocate::trace {

NoiseAppGenerator::NoiseAppGenerator(std::uint64_t seed) : rng_(seed) {}

crypto::DataEvent NoiseAppGenerator::next_event(NoisePhase phase,
                                                std::size_t position) {
  using crypto::OpClass;
  const std::uint32_t value = static_cast<std::uint32_t>(rng_.next_u64());
  const double roll = rng_.uniform();

  OpClass op = OpClass::kArith;
  switch (phase) {
    case NoisePhase::kMemoryBurst:
      // Alternating load/store with occasional address arithmetic.
      if (roll < 0.45)
        op = OpClass::kLoad;
      else if (roll < 0.85)
        op = OpClass::kStore;
      else
        op = OpClass::kArith;
      break;
    case NoisePhase::kAluLoop:
      if (roll < 0.4)
        op = OpClass::kArith;
      else if (roll < 0.7)
        op = OpClass::kXor;
      else if (roll < 0.9)
        op = OpClass::kShift;
      else
        op = OpClass::kBranch;  // loop back-edge
      break;
    case NoisePhase::kTableLookup:
      // Table-driven code: lookup, combine, occasionally store.
      if (position % 4 == 0)
        op = OpClass::kSbox;
      else if (roll < 0.4)
        op = OpClass::kLoad;
      else if (roll < 0.8)
        op = OpClass::kXor;
      else
        op = OpClass::kStore;
      break;
    case NoisePhase::kBranchy:
      if (roll < 0.45)
        op = OpClass::kBranch;
      else if (roll < 0.8)
        op = OpClass::kArith;
      else
        op = OpClass::kLoad;
      break;
    case NoisePhase::kIdle:
      if (roll < 0.7)
        op = OpClass::kNop;
      else
        op = OpClass::kBranch;  // wait-loop back-edge
      break;
    case NoisePhase::kMixed: {
      static constexpr OpClass kAny[] = {
          OpClass::kLoad, OpClass::kStore, OpClass::kXor,
          OpClass::kShift, OpClass::kArith, OpClass::kMul,
          OpClass::kSbox, OpClass::kBranch};
      op = kAny[rng_.next_below(8)];
      break;
    }
    case NoisePhase::kCount:
      throw InvalidArgument("NoiseAppGenerator: invalid phase");
  }
  return crypto::DataEvent{op, value, 32};
}

}  // namespace scalocate::trace
