#include "crypto/cipher.hpp"

#include <array>

#include "common/error.hpp"
#include "crypto/aes128.hpp"
#include "crypto/camellia128.hpp"
#include "crypto/clefia128.hpp"
#include "crypto/masked_aes.hpp"
#include "crypto/simon128.hpp"

namespace scalocate::crypto {

namespace {
constexpr std::array<CipherId, 5> kAllIds = {
    CipherId::kAes128, CipherId::kAesMasked, CipherId::kClefia128,
    CipherId::kCamellia128, CipherId::kSimon128};
}

std::span<const CipherId> all_cipher_ids() { return kAllIds; }

std::string cipher_display_name(CipherId id) {
  switch (id) {
    case CipherId::kAes128:
      return "AES";
    case CipherId::kAesMasked:
      return "AES mask";
    case CipherId::kClefia128:
      return "Clefia";
    case CipherId::kCamellia128:
      return "Camellia";
    case CipherId::kSimon128:
      return "Simon";
  }
  throw InvalidArgument("cipher_display_name: unknown id");
}

std::unique_ptr<BlockCipher> make_cipher(CipherId id, std::uint64_t mask_seed) {
  switch (id) {
    case CipherId::kAes128:
      return std::make_unique<Aes128>();
    case CipherId::kAesMasked:
      return std::make_unique<MaskedAes128>(mask_seed);
    case CipherId::kClefia128:
      return std::make_unique<Clefia128>();
    case CipherId::kCamellia128:
      return std::make_unique<Camellia128>();
    case CipherId::kSimon128:
      return std::make_unique<Simon128>();
  }
  throw InvalidArgument("make_cipher: unknown id");
}

}  // namespace scalocate::crypto
