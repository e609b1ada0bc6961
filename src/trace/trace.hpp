// Side-channel trace container with in-band ground truth.
//
// A Trace is the simulator's stand-in for one oscilloscope capture. Apart
// from the raw samples it records, for validation only, the true start/end
// sample of every cryptographic operation (CO) executed while the trace was
// recorded -- information an attacker does not have, used exclusively to
// score locator hit rates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/cipher.hpp"

namespace scalocate::trace {

/// Ground-truth annotation of one CO execution inside a trace.
struct CoAnnotation {
  std::size_t start_sample = 0;  ///< first sample of the CO
  std::size_t end_sample = 0;    ///< one past the last sample of the CO
  crypto::Block16 plaintext{};   ///< input processed by this CO
  crypto::Block16 ciphertext{};  ///< output of this CO
};

/// One captured power trace.
struct Trace {
  std::vector<float> samples;
  std::vector<CoAnnotation> cos;  ///< ground truth, empty for noise traces
  std::string cipher_name;        ///< cipher executed ("" for noise traces)
  double sample_rate_hz = 125e6;  ///< acquisition metadata
  std::uint32_t random_delay_max = 0;  ///< RD configuration in effect

  std::size_t size() const { return samples.size(); }

  /// True CO start samples, in order.
  std::vector<std::size_t> co_starts() const;

  /// Mean CO length in samples (0 when no COs).
  double mean_co_length() const;
};

/// Binary serialization (magic-prefixed, little-endian). save_trace throws
/// IoError when the file cannot be opened or written. load_trace throws
/// IoError when the file cannot be opened, has the wrong magic, ends
/// before a field does, or declares a length larger than the bytes left.
void save_trace(const Trace& trace, const std::string& path);
Trace load_trace(const std::string& path);

}  // namespace scalocate::trace
