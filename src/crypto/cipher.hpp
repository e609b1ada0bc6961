// Common block-cipher interface and registry.
//
// Every cryptographic operation (CO) the paper evaluates -- AES-128,
// masked AES-128, Camellia-128, Clefia-128 and Simon-128/128 -- implements
// this interface. `encrypt` optionally streams DataEvents so the trace
// simulator can synthesize the side-channel signal of the execution.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crypto/event.hpp"

namespace scalocate {
class Rng;  // forward declaration (common/rng.hpp)
}

namespace scalocate::crypto {

using Block16 = std::array<std::uint8_t, 16>;
using Key16 = std::array<std::uint8_t, 16>;

/// Abstract 128-bit block cipher with 128-bit key.
class BlockCipher {
 public:
  virtual ~BlockCipher() = default;

  /// Human-readable cipher name, e.g. "AES-128".
  virtual std::string name() const = 0;

  /// Installs the key and runs the key schedule. Key-schedule operations
  /// are not traced (the attacker profiles encryptions, not re-keying).
  virtual void set_key(const Key16& key) = 0;

  /// Encrypts one block. When `sink` is non-null, emits one DataEvent per
  /// executed operation for the power simulator.
  virtual Block16 encrypt(const Block16& plaintext,
                          EventSink* sink = nullptr) const = 0;

  /// Decrypts one block (not traced; decryption is not part of the paper's
  /// threat model but completes the cipher library and enables round-trip
  /// property tests).
  virtual Block16 decrypt(const Block16& ciphertext) const = 0;

  /// True when the implementation applies a masking countermeasure (the
  /// masked cipher needs fresh randomness per encryption; see set_mask_rng).
  virtual bool is_masked() const { return false; }
};

/// Identifiers for the evaluated ciphers, in the paper's Table I order.
enum class CipherId {
  kAes128,
  kAesMasked,
  kClefia128,
  kCamellia128,
  kSimon128,
};

/// All cipher ids in Table I order.
std::span<const CipherId> all_cipher_ids();

/// Table name used in the paper, e.g. "AES mask".
std::string cipher_display_name(CipherId id);

/// Factory. For kAesMasked, `mask_seed` seeds the per-encryption mask
/// generator (masking requires fresh randomness).
std::unique_ptr<BlockCipher> make_cipher(CipherId id,
                                         std::uint64_t mask_seed = 1);

}  // namespace scalocate::crypto
