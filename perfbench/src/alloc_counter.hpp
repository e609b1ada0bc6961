// Counting global operator new/delete of the benchmark binary. The
// counters only advance while armed, which only the traced run does.
#pragma once

#include <cstdint>

namespace perfbench::alloc {

struct Counts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Starts counting from zero.
void arm();
/// Stops counting and returns what was allocated since arm().
Counts disarm();

}  // namespace perfbench::alloc
