// Known-answer, round-trip, and statistical tests for the cipher substrate.
//
// AES and Camellia vectors were generated/validated against OpenSSL
// (FIPS-197 and RFC 3713 vectors included); the Simon vector is from the
// Simon & Speck paper appendix. Clefia is a structure-faithful variant
// (see clefia128.hpp), so it is validated by round-trip, bijectivity and
// avalanche tests instead of external vectors.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/aes128.hpp"
#include "crypto/camellia128.hpp"
#include "crypto/cipher.hpp"
#include "crypto/clefia128.hpp"
#include "crypto/masked_aes.hpp"
#include "crypto/simon128.hpp"

namespace scalocate::crypto {
namespace {

Block16 from_hex(const std::string& hex) {
  Block16 out{};
  for (std::size_t i = 0; i < 16; ++i)
    out[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  return out;
}

std::string to_hex(const Block16& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (auto v : b) {
    s += digits[v >> 4];
    s += digits[v & 0xf];
  }
  return s;
}

/// Counts events emitted by one traced encryption.
class CountingSink final : public EventSink {
 public:
  void on_event(const DataEvent& event) override {
    ++count_;
    per_class_[static_cast<std::size_t>(event.op)]++;
  }
  std::size_t count() const { return count_; }
  std::size_t of(OpClass op) const {
    return per_class_[static_cast<std::size_t>(op)];
  }

 private:
  std::size_t count_ = 0;
  std::array<std::size_t, static_cast<std::size_t>(OpClass::kCount)>
      per_class_{};
};

// ---------------------------------------------------------------------------
// AES-128
// ---------------------------------------------------------------------------

TEST(Aes128, Fips197KnownAnswer) {
  Aes128 aes;
  aes.set_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  const auto ct = aes.encrypt(from_hex("00112233445566778899aabbccddeeff"));
  EXPECT_EQ(to_hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, DecryptInvertsEncrypt) {
  Aes128 aes;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    Key16 key{};
    Block16 pt{};
    rng.fill_bytes(key.data(), 16);
    rng.fill_bytes(pt.data(), 16);
    aes.set_key(key);
    EXPECT_EQ(aes.decrypt(aes.encrypt(pt)), pt);
  }
}

TEST(Aes128, SboxIsBijective) {
  std::set<std::uint8_t> seen;
  for (int x = 0; x < 256; ++x)
    seen.insert(Aes128::sbox(static_cast<std::uint8_t>(x)));
  EXPECT_EQ(seen.size(), 256u);
}

TEST(Aes128, InvSboxInvertsSbox) {
  for (int x = 0; x < 256; ++x) {
    const auto v = static_cast<std::uint8_t>(x);
    EXPECT_EQ(Aes128::inv_sbox(Aes128::sbox(v)), v);
  }
}

TEST(Aes128, XtimeMatchesGf2) {
  EXPECT_EQ(Aes128::xtime(0x57), 0xae);
  EXPECT_EQ(Aes128::xtime(0xae), 0x47);  // wraps modulo the AES polynomial
}

TEST(Aes128, EncryptWithoutKeyThrows) {
  Aes128 aes;
  EXPECT_THROW(aes.encrypt(Block16{}), Error);
}

TEST(Aes128, EmitsEventsWhenTraced) {
  Aes128 aes;
  aes.set_key(Key16{});
  CountingSink sink;
  aes.encrypt(Block16{}, &sink);
  EXPECT_GT(sink.count(), 500u);
  EXPECT_EQ(sink.of(OpClass::kSbox), 160u);  // 16 bytes x 10 rounds
  EXPECT_GT(sink.of(OpClass::kLoad), 0u);
  EXPECT_GT(sink.of(OpClass::kStore), 0u);
}

TEST(Aes128, NullSinkProducesSameCiphertext) {
  Aes128 aes;
  aes.set_key(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const Block16 pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  CountingSink sink;
  EXPECT_EQ(aes.encrypt(pt), aes.encrypt(pt, &sink));
}

// ---------------------------------------------------------------------------
// Masked AES-128
// ---------------------------------------------------------------------------

TEST(MaskedAes, FunctionallyEqualToAes) {
  Aes128 plain;
  MaskedAes128 masked(1234);
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    Key16 key{};
    Block16 pt{};
    rng.fill_bytes(key.data(), 16);
    rng.fill_bytes(pt.data(), 16);
    plain.set_key(key);
    masked.set_key(key);
    EXPECT_EQ(masked.encrypt(pt), plain.encrypt(pt));
  }
}

TEST(MaskedAes, DecryptInverts) {
  MaskedAes128 masked(9);
  Key16 key{};
  key[3] = 0xaa;
  masked.set_key(key);
  Block16 pt{};
  pt[0] = 0x42;
  EXPECT_EQ(masked.decrypt(masked.encrypt(pt)), pt);
}

TEST(MaskedAes, IsMaskedFlag) {
  MaskedAes128 masked(9);
  EXPECT_TRUE(masked.is_masked());
  Aes128 plain;
  EXPECT_FALSE(plain.is_masked());
}

TEST(MaskedAes, EventStreamDiffersBetweenEncryptions) {
  // Fresh masks per encryption: the traced values of two identical
  // encryptions must differ (first-order masking at work).
  MaskedAes128 masked(77);
  masked.set_key(Key16{});

  struct Collect final : EventSink {
    std::vector<std::uint64_t> values;
    void on_event(const DataEvent& e) override { values.push_back(e.value); }
  };
  Collect a, b;
  const Block16 pt{};
  const auto ct1 = masked.encrypt(pt, &a);
  const auto ct2 = masked.encrypt(pt, &b);
  EXPECT_EQ(ct1, ct2);             // same function
  EXPECT_NE(a.values, b.values);   // different masked intermediates
}

TEST(MaskedAes, EmitsSboxRemaskingBurst) {
  MaskedAes128 masked(5);
  masked.set_key(Key16{});
  CountingSink sink;
  masked.encrypt(Block16{}, &sink);
  // 256-entry masked S-box recomputation dominates the load/store counts.
  EXPECT_GT(sink.of(OpClass::kLoad), 256u);
  EXPECT_GT(sink.of(OpClass::kStore), 256u);
}

// ---------------------------------------------------------------------------
// Camellia-128
// ---------------------------------------------------------------------------

TEST(Camellia128, Rfc3713KnownAnswer) {
  Camellia128 cam;
  cam.set_key(from_hex("0123456789abcdeffedcba9876543210"));
  const auto ct = cam.encrypt(from_hex("0123456789abcdeffedcba9876543210"));
  EXPECT_EQ(to_hex(ct), "67673138549669730857065648eabe43");
}

TEST(Camellia128, OpensslGeneratedVectors) {
  // Generated with `openssl enc -camellia-128-ecb -nopad`.
  struct Vector {
    const char* key;
    const char* pt;
    const char* ct;
  };
  const Vector vectors[] = {
      {"810c8ca0fc0aeba00e169d7583176280", "2366f69d6ab981be4ac1e63240c0e5ec",
       "1da96a314f416be40b5ef09affc30281"},
      {"91f4a6175f09826c9b9fd7c65e6078d6", "6318eb96c65fd6e5b0bbd1fe14ef7500",
       "2e7546dfe9bfc56b33994100d0dea507"},
      {"381fa04befa694cecb61463fde27cbf5", "9a63355927485689ee58ae68cfb79409",
       "dab049cc79cfaedbce1252e554d41f35"},
  };
  Camellia128 cam;
  for (const auto& v : vectors) {
    cam.set_key(from_hex(v.key));
    EXPECT_EQ(to_hex(cam.encrypt(from_hex(v.pt))), v.ct);
  }
}

TEST(Camellia128, DecryptInvertsEncrypt) {
  Camellia128 cam;
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Key16 key{};
    Block16 pt{};
    rng.fill_bytes(key.data(), 16);
    rng.fill_bytes(pt.data(), 16);
    cam.set_key(key);
    EXPECT_EQ(cam.decrypt(cam.encrypt(pt)), pt);
  }
}

TEST(Camellia128, EmitsSboxEvents) {
  Camellia128 cam;
  cam.set_key(Key16{});
  CountingSink sink;
  cam.encrypt(Block16{}, &sink);
  EXPECT_EQ(sink.of(OpClass::kSbox), 144u);  // 8 per F, 18 rounds
}

// ---------------------------------------------------------------------------
// Simon-128/128
// ---------------------------------------------------------------------------

TEST(Simon128, PaperKnownAnswer) {
  Simon128 simon;
  Key16 key{};
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  simon.set_key(key);
  Block16 pt{};
  const std::uint64_t y = 0x6c6c657661727420ULL;
  const std::uint64_t x = 0x6373656420737265ULL;
  for (int i = 0; i < 8; ++i) {
    pt[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(y >> (8 * i));
    pt[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(x >> (8 * i));
  }
  const auto ct = simon.encrypt(pt);
  std::uint64_t cy = 0, cx = 0;
  for (int i = 7; i >= 0; --i) {
    cy = (cy << 8) | ct[static_cast<std::size_t>(i)];
    cx = (cx << 8) | ct[static_cast<std::size_t>(8 + i)];
  }
  EXPECT_EQ(cx, 0x49681b1e1e54fe3fULL);
  EXPECT_EQ(cy, 0x65aa832af84e0bbcULL);
}

TEST(Simon128, DecryptInvertsEncrypt) {
  Simon128 simon;
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    Key16 key{};
    Block16 pt{};
    rng.fill_bytes(key.data(), 16);
    rng.fill_bytes(pt.data(), 16);
    simon.set_key(key);
    EXPECT_EQ(simon.decrypt(simon.encrypt(pt)), pt);
  }
}

TEST(Simon128, NoSboxEvents) {
  Simon128 simon;
  simon.set_key(Key16{});
  CountingSink sink;
  simon.encrypt(Block16{}, &sink);
  EXPECT_EQ(sink.of(OpClass::kSbox), 0u);  // ARX cipher: no table lookups
  EXPECT_GE(sink.of(OpClass::kXor), Simon128::kRounds);
}

// ---------------------------------------------------------------------------
// Clefia-128 (structure-faithful variant)
// ---------------------------------------------------------------------------

TEST(Clefia128, DecryptInvertsEncrypt) {
  Clefia128 clefia;
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Key16 key{};
    Block16 pt{};
    rng.fill_bytes(key.data(), 16);
    rng.fill_bytes(pt.data(), 16);
    clefia.set_key(key);
    EXPECT_EQ(clefia.decrypt(clefia.encrypt(pt)), pt);
  }
}

TEST(Clefia128, SboxesAreBijective) {
  std::set<std::uint8_t> s0, s1;
  for (int x = 0; x < 256; ++x) {
    s0.insert(Clefia128::s0(static_cast<std::uint8_t>(x)));
    s1.insert(Clefia128::s1(static_cast<std::uint8_t>(x)));
  }
  EXPECT_EQ(s0.size(), 256u);
  EXPECT_EQ(s1.size(), 256u);
}

TEST(Clefia128, AvalancheOnPlaintext) {
  // Flipping one plaintext bit should flip ~half the ciphertext bits.
  Clefia128 clefia;
  Key16 key{};
  key[7] = 0x5a;
  clefia.set_key(key);
  Block16 pt{};
  const auto c1 = clefia.encrypt(pt);
  pt[0] ^= 0x01;
  const auto c2 = clefia.encrypt(pt);
  int flipped = 0;
  for (std::size_t i = 0; i < 16; ++i)
    flipped += __builtin_popcount(static_cast<unsigned>(c1[i] ^ c2[i]));
  EXPECT_GT(flipped, 40);
  EXPECT_LT(flipped, 88);
}

TEST(Clefia128, AvalancheOnKey) {
  Clefia128 clefia;
  Key16 key{};
  clefia.set_key(key);
  const auto c1 = clefia.encrypt(Block16{});
  key[15] ^= 0x80;
  clefia.set_key(key);
  const auto c2 = clefia.encrypt(Block16{});
  int flipped = 0;
  for (std::size_t i = 0; i < 16; ++i)
    flipped += __builtin_popcount(static_cast<unsigned>(c1[i] ^ c2[i]));
  EXPECT_GT(flipped, 40);
  EXPECT_LT(flipped, 88);
}

TEST(Clefia128, EmitsSboxEvents) {
  Clefia128 clefia;
  clefia.set_key(Key16{});
  CountingSink sink;
  clefia.encrypt(Block16{}, &sink);
  EXPECT_EQ(sink.of(OpClass::kSbox), 144u);  // 8 per round, 18 rounds
}

// ---------------------------------------------------------------------------
// Factory / registry -- parameterized round-trip across all ciphers
// ---------------------------------------------------------------------------

class AllCiphers : public ::testing::TestWithParam<CipherId> {};

TEST_P(AllCiphers, EncryptDecryptRoundTrip) {
  auto cipher = make_cipher(GetParam(), 99);
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    Key16 key{};
    Block16 pt{};
    rng.fill_bytes(key.data(), 16);
    rng.fill_bytes(pt.data(), 16);
    cipher->set_key(key);
    EXPECT_EQ(cipher->decrypt(cipher->encrypt(pt)), pt);
  }
}

TEST_P(AllCiphers, TracedAndUntracedAgree) {
  auto cipher = make_cipher(GetParam(), 42);
  cipher->set_key(Key16{});
  CountingSink sink;
  const Block16 pt{};
  // Note: the masked cipher consumes fresh randomness per call, but its
  // *ciphertext* is mask-independent by construction.
  EXPECT_EQ(cipher->encrypt(pt, &sink), cipher->encrypt(pt));
  EXPECT_GT(sink.count(), 100u);
}

TEST_P(AllCiphers, DeterministicCiphertext) {
  auto a = make_cipher(GetParam(), 7);
  auto b = make_cipher(GetParam(), 8);  // different mask seed: same function
  Key16 key{};
  key[0] = 1;
  a->set_key(key);
  b->set_key(key);
  Block16 pt{};
  pt[5] = 9;
  EXPECT_EQ(a->encrypt(pt), b->encrypt(pt));
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllCiphers,
    ::testing::Values(CipherId::kAes128, CipherId::kAesMasked,
                      CipherId::kClefia128, CipherId::kCamellia128,
                      CipherId::kSimon128));

TEST(CipherRegistry, DisplayNames) {
  EXPECT_EQ(cipher_display_name(CipherId::kAesMasked), "AES mask");
  EXPECT_EQ(all_cipher_ids().size(), 5u);
}

}  // namespace
}  // namespace scalocate::crypto
