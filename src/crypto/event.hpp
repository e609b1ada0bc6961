// Instruction-level data events emitted by instrumented cipher software.
//
// The trace simulator (src/trace) replaces the paper's FPGA + oscilloscope:
// instead of measuring real power, each cipher implementation streams one
// DataEvent per executed operation (S-box lookup, XOR, load, ...) carrying
// the operand value. The power model converts events into power samples via
// a Hamming-weight leakage model, which is exactly the dependency CPA and
// the CNN locator exploit on real hardware.
#pragma once

#include <cstdint>
#include <functional>

namespace scalocate::crypto {

/// Coarse operation classes; each class has a distinct baseline power draw
/// in the simulator's opcode power table (mirrors per-opcode current
/// signatures of a real in-order RISC-V pipeline).
enum class OpClass : std::uint8_t {
  kNop = 0,      ///< NOP sled marker used during dataset acquisition
  kLoad,         ///< memory load (e.g. table lookup address computation)
  kStore,        ///< memory store
  kXor,          ///< bitwise xor/and/or
  kShift,        ///< shift/rotate
  kArith,        ///< add/sub
  kMul,          ///< multiply (used by GF multiplications)
  kSbox,         ///< S-box table lookup (the classic leaky operation)
  kBranch,       ///< control flow
  kCount,        ///< number of classes (not an event)
};

/// One executed operation together with the data value it produced.
struct DataEvent {
  OpClass op = OpClass::kNop;
  std::uint64_t value = 0;  ///< result operand; the model leaks HW(value)
  std::uint8_t width = 8;   ///< operand width in bits (8/16/32/64)
};

/// Receiver of instruction events. The SoC simulator implements this to
/// turn events into power samples; a null sink disables instrumentation.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const DataEvent& event) = 0;
};

/// Convenience wrapper so cipher code can emit unconditionally; forwards to
/// the sink when present and is a no-op otherwise (plain encryption).
class Tracer {
 public:
  explicit Tracer(EventSink* sink) : sink_(sink) {}

  void emit(OpClass op, std::uint64_t value, std::uint8_t width = 8) {
    if (sink_ != nullptr) sink_->on_event(DataEvent{op, value, width});
  }

 private:
  EventSink* sink_;
};

}  // namespace scalocate::crypto
