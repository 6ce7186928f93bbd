// Crypto tests: FIPS-197 known answers for AES (all key sizes, both
// implementations), RFC 3174 / RFC 2202 vectors for SHA-1 / HMAC-SHA1,
// property tests for modes and bignum, and RSA round trips.
#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/prng.h"
#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/modes.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"

namespace rmc::crypto {
namespace {

using common::from_hex;
using common::to_hex;
using common::u8;

// ---------------------------------------------------------------------------
// GF(2^8) / S-box
// ---------------------------------------------------------------------------

TEST(Gf, MultiplicationKnownValues) {
  EXPECT_EQ(gf_mul(0x57, 0x83), 0xC1);  // FIPS-197 example
  EXPECT_EQ(gf_mul(0x57, 0x13), 0xFE);
  EXPECT_EQ(gf_mul(0x01, 0xAB), 0xAB);
  EXPECT_EQ(gf_mul(0x00, 0xAB), 0x00);
}

TEST(Gf, MultiplicationCommutesAndDistributes) {
  for (int a = 0; a < 256; a += 7) {
    for (int b = 0; b < 256; b += 11) {
      EXPECT_EQ(gf_mul(static_cast<u8>(a), static_cast<u8>(b)),
                gf_mul(static_cast<u8>(b), static_cast<u8>(a)));
      const u8 c = 0x35;
      EXPECT_EQ(gf_mul(static_cast<u8>(a), static_cast<u8>(b ^ c)),
                gf_mul(static_cast<u8>(a), static_cast<u8>(b)) ^
                    gf_mul(static_cast<u8>(a), c));
    }
  }
}

TEST(Sbox, KnownEntries) {
  EXPECT_EQ(aes_sbox(0x00), 0x63);
  EXPECT_EQ(aes_sbox(0x01), 0x7C);
  EXPECT_EQ(aes_sbox(0x53), 0xED);
  EXPECT_EQ(aes_sbox(0xFF), 0x16);
}

TEST(Sbox, InverseIsInverse) {
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(aes_inv_sbox(aes_sbox(static_cast<u8>(i))), i);
  }
}

TEST(Sbox, IsPermutation) {
  std::array<bool, 256> seen{};
  for (int i = 0; i < 256; ++i) seen[aes_sbox(static_cast<u8>(i))] = true;
  for (bool b : seen) EXPECT_TRUE(b);
}

// ---------------------------------------------------------------------------
// AES known-answer tests (FIPS-197 Appendix C)
// ---------------------------------------------------------------------------

struct AesKat {
  const char* name;
  const char* key;
  const char* plain;
  const char* cipher;
};

// gtest_discover_tests names each case after the printed parameter; printing
// the label keeps the test IDs free of string-literal addresses.
void PrintTo(const AesKat& kat, std::ostream* os) { *os << kat.name; }

class AesKnownAnswer : public ::testing::TestWithParam<AesKat> {};

TEST_P(AesKnownAnswer, ReferenceEncryptDecrypt) {
  const auto& kat = GetParam();
  auto aes = Aes::create(from_hex(kat.key));
  ASSERT_TRUE(aes.ok());
  std::array<u8, 16> out{};
  aes->encrypt_block(from_hex(kat.plain), out);
  EXPECT_EQ(to_hex(out), kat.cipher);
  std::array<u8, 16> back{};
  aes->decrypt_block(out, back);
  EXPECT_EQ(to_hex(back), kat.plain);
}

TEST_P(AesKnownAnswer, FastMatchesReference) {
  const auto& kat = GetParam();
  auto fast = AesFast::create(from_hex(kat.key));
  ASSERT_TRUE(fast.ok());
  std::array<u8, 16> out{};
  fast->encrypt_block(from_hex(kat.plain), out);
  EXPECT_EQ(to_hex(out), kat.cipher);
  std::array<u8, 16> back{};
  fast->decrypt_block(out, back);
  EXPECT_EQ(to_hex(back), kat.plain);
}

INSTANTIATE_TEST_SUITE_P(
    Fips197, AesKnownAnswer,
    ::testing::Values(
        AesKat{"aes128_c1",
               "000102030405060708090a0b0c0d0e0f",
               "00112233445566778899aabbccddeeff",
               "69c4e0d86a7b0430d8cdb78070b4c55a"},
        AesKat{"aes192_c2",
               "000102030405060708090a0b0c0d0e0f1011121314151617",
               "00112233445566778899aabbccddeeff",
               "dda97ca4864cdfe06eaf70a0ec0d7191"},
        AesKat{"aes256_c3",
               "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1"
               "d1e1f",
               "00112233445566778899aabbccddeeff",
               "8ea2b7ca516745bfeafc49904b496089"},
        // FIPS-197 Appendix B worked example.
        AesKat{"aes128_appendix_b",
               "2b7e151628aed2a6abf7158809cf4f3c",
               "3243f6a8885a308d313198a2e0370734",
               "3925841d02dc09fbdc118597196a0b32"}));

TEST(Aes, RejectsBadKeyLength) {
  std::vector<u8> key(15, 0);
  EXPECT_FALSE(Aes::create(key).ok());
  EXPECT_FALSE(AesFast::create(key).ok());
}

TEST(Aes, FastAgreesWithReferenceOnRandomInputs) {
  common::Xorshift64 rng(42);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<u8> key(16 + 8 * (trial % 3));
    rng.fill(key);
    auto ref = Aes::create(key);
    auto fast = AesFast::create(key);
    ASSERT_TRUE(ref.ok() && fast.ok());
    std::array<u8, 16> pt{}, a{}, b{};
    rng.fill(pt);
    ref->encrypt_block(pt, a);
    fast->encrypt_block(pt, b);
    EXPECT_EQ(a, b) << "key bytes " << key.size();
    // Decryption of an arbitrary block (not only of a ciphertext this key
    // produced) must agree too.
    std::array<u8, 16> ct{}, c{}, d{};
    rng.fill(ct);
    ref->decrypt_block(ct, c);
    fast->decrypt_block(ct, d);
    EXPECT_EQ(c, d) << "key bytes " << key.size();
  }
}

TEST(Aes, EncryptDecryptRoundTripProperty) {
  common::Xorshift64 rng(7);
  std::vector<u8> key(16);
  rng.fill(key);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.ok());
  for (int trial = 0; trial < 100; ++trial) {
    std::array<u8, 16> pt{}, ct{}, back{};
    rng.fill(pt);
    aes->encrypt_block(pt, ct);
    aes->decrypt_block(ct, back);
    EXPECT_EQ(pt, back);
    EXPECT_NE(pt, ct);  // identity would be a catastrophic bug
  }
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

TEST(Modes, Pkcs7PadAlwaysAddsBytes) {
  for (std::size_t n = 0; n <= 48; ++n) {
    std::vector<u8> data(n, 0xAA);
    const auto padded = pkcs7_pad(data, 16);
    EXPECT_EQ(padded.size() % 16, 0u);
    EXPECT_GT(padded.size(), data.size());
    auto back = pkcs7_unpad(padded, 16);
    ASSERT_TRUE(back.ok()) << n;
    EXPECT_EQ(*back, data);
  }
}

TEST(Modes, Pkcs7UnpadRejectsTampering) {
  std::vector<u8> data(10, 0x42);
  auto padded = pkcs7_pad(data, 16);
  padded.back() = 0;  // invalid pad byte
  EXPECT_FALSE(pkcs7_unpad(padded, 16).ok());
  padded.back() = 17;  // > block
  EXPECT_FALSE(pkcs7_unpad(padded, 16).ok());
  padded.back() = 6;
  padded[padded.size() - 3] ^= 0xFF;  // inconsistent fill
  EXPECT_FALSE(pkcs7_unpad(padded, 16).ok());
  EXPECT_FALSE(pkcs7_unpad(std::vector<u8>{}, 16).ok());
  EXPECT_FALSE(pkcs7_unpad(std::vector<u8>(15, 1), 16).ok());
}

TEST(Modes, CbcRoundTripAndChaining) {
  common::Xorshift64 rng(3);
  std::vector<u8> key(16), iv(16);
  rng.fill(key);
  rng.fill(iv);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.ok());
  std::vector<u8> pt(64);
  rng.fill(pt);
  const auto ct = cbc_encrypt(*aes, iv, pt);
  EXPECT_EQ(cbc_decrypt(*aes, iv, ct), pt);
  // Identical plaintext blocks must encrypt differently under CBC.
  std::vector<u8> repeated(32, 0x55);
  const auto ct2 = cbc_encrypt(*aes, iv, repeated);
  EXPECT_NE(std::vector<u8>(ct2.begin(), ct2.begin() + 16),
            std::vector<u8>(ct2.begin() + 16, ct2.end()));
}

TEST(Modes, CbcIvChangesCiphertext) {
  std::vector<u8> key(16, 1), iv1(16, 2), iv2(16, 3), pt(32, 4);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.ok());
  EXPECT_NE(cbc_encrypt(*aes, iv1, pt), cbc_encrypt(*aes, iv2, pt));
}

TEST(Modes, EcbLeaksEqualBlocks) {
  // Documents *why* the record layer uses CBC.
  std::vector<u8> key(16, 9), pt(32, 0x77);
  auto aes = Aes::create(key);
  ASSERT_TRUE(aes.ok());
  const auto ct = ecb_encrypt(*aes, pt);
  EXPECT_EQ(std::vector<u8>(ct.begin(), ct.begin() + 16),
            std::vector<u8>(ct.begin() + 16, ct.end()));
}

// ---------------------------------------------------------------------------
// SHA-1 / HMAC (RFC 3174, RFC 2202)
// ---------------------------------------------------------------------------

std::string sha1_hex(std::string_view msg) {
  const auto d = Sha1::digest(std::span<const u8>(
      reinterpret_cast<const u8*>(msg.data()), msg.size()));
  return to_hex(d);
}

TEST(Sha1, Rfc3174Vectors) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnop"
                     "q"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs) {
  Sha1 s;
  std::vector<u8> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(to_hex(s.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  common::Xorshift64 rng(11);
  std::vector<u8> data(777);
  rng.fill(data);
  Sha1 s;
  // Feed in awkward chunk sizes across the 64-byte boundary.
  std::size_t off = 0;
  const std::size_t sizes[] = {1, 63, 64, 65, 100, 484};
  for (std::size_t sz : sizes) {
    s.update(std::span<const u8>(data.data() + off, sz));
    off += sz;
  }
  ASSERT_EQ(off, data.size());
  EXPECT_EQ(s.finish(), Sha1::digest(data));
}

TEST(Hmac, Rfc2202Vectors) {
  {
    std::vector<u8> key(20, 0x0b);
    const std::string msg = "Hi There";
    EXPECT_EQ(to_hex(hmac_sha1(key, std::span<const u8>(
                                        reinterpret_cast<const u8*>(msg.data()),
                                        msg.size()))),
              "b617318655057264e28bc0b6fb378c8ef146be00");
  }
  {
    const std::string key = "Jefe";
    const std::string msg = "what do ya want for nothing?";
    EXPECT_EQ(
        to_hex(hmac_sha1(
            std::span<const u8>(reinterpret_cast<const u8*>(key.data()),
                                key.size()),
            std::span<const u8>(reinterpret_cast<const u8*>(msg.data()),
                                msg.size()))),
        "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
  }
  {
    std::vector<u8> key(80, 0xaa);  // key longer than block -> hashed
    const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key "
                            "First";
    EXPECT_EQ(to_hex(hmac_sha1(key, std::span<const u8>(
                                        reinterpret_cast<const u8*>(msg.data()),
                                        msg.size()))),
              "aa4ae5e15272d00e95705637ce8a3b55ed402112");
  }
}

TEST(Prf, DeterministicAndLengthExact) {
  std::vector<u8> secret(16, 1), label{'k', 'b'}, seed(32, 2);
  std::vector<u8> out1(100), out2(100);
  prf_sha1(secret, label, seed, out1);
  prf_sha1(secret, label, seed, out2);
  EXPECT_EQ(out1, out2);
  std::vector<u8> out3(100);
  seed[0] ^= 1;
  prf_sha1(secret, label, seed, out3);
  EXPECT_NE(out1, out3);
}

TEST(Prf, PrefixConsistency) {
  // Asking for fewer bytes must give a prefix of asking for more.
  std::vector<u8> secret(16, 7), label{'x'}, seed(8, 9);
  std::vector<u8> small(25), large(80);
  prf_sha1(secret, label, seed, small);
  prf_sha1(secret, label, seed, large);
  EXPECT_TRUE(std::equal(small.begin(), small.end(), large.begin()));
}

// ---------------------------------------------------------------------------
// BigNum
// ---------------------------------------------------------------------------

TEST(BigNumTest, ConstructionAndHex) {
  EXPECT_EQ(BigNum(0).to_hex(), "0");
  EXPECT_EQ(BigNum(0xDEADBEEFull).to_hex(), "deadbeef");
  EXPECT_EQ(BigNum(0x1122334455667788ull).to_hex(), "1122334455667788");
  auto n = BigNum::from_hex("ffeeddccbbaa99887766554433221100");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->to_hex(), "ffeeddccbbaa99887766554433221100");
}

TEST(BigNumTest, BytesRoundTrip) {
  const std::vector<u8> bytes = {0x01, 0x02, 0x03, 0x04, 0x05};
  const BigNum n = BigNum::from_bytes(bytes);
  EXPECT_EQ(n.to_bytes(), bytes);
  auto padded = n.to_bytes_padded(8);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->size(), 8u);
  EXPECT_EQ((*padded)[0], 0);
  EXPECT_EQ((*padded)[3], 0x01);
  EXPECT_FALSE(n.to_bytes_padded(3).ok());
  // Leading zero bytes, a width that is not a whole number of limbs, and
  // the empty input.
  const std::vector<u8> wide = {0x00, 0x00, 0x01, 0x02, 0x03, 0x04,
                                0x05, 0x06, 0x07, 0x08, 0x09};
  EXPECT_EQ(BigNum::from_bytes(wide).to_hex(), "10203040506070809");
  EXPECT_TRUE(BigNum::from_bytes(std::vector<u8>{}).is_zero());
  EXPECT_TRUE(BigNum::from_bytes(std::vector<u8>{0, 0, 0, 0, 0}).is_zero());
}

TEST(BigNumTest, ArithmeticIdentities) {
  common::Xorshift64 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const BigNum a = BigNum::random_bits(96, rng);
    const BigNum b = BigNum::random_bits(64, rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * BigNum(1), a);
    EXPECT_EQ(a * BigNum(0), BigNum(0));
    auto dm = (a * b + a).divmod(b);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient, a + a.divmod(b)->quotient);
  }
}

TEST(BigNumTest, DivModInvariant) {
  common::Xorshift64 rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const BigNum a = BigNum::random_bits(128, rng);
    const BigNum b = BigNum::random_bits(40 + trial % 60, rng);
    auto dm = a.divmod(b);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ(dm->quotient * b + dm->remainder, a);
    EXPECT_TRUE(dm->remainder < b);
  }
}

TEST(BigNumTest, DivisionByZeroFails) {
  EXPECT_FALSE(BigNum(5).divmod(BigNum(0)).ok());
}

TEST(BigNumTest, Shifts) {
  const BigNum one(1);
  EXPECT_EQ((one << 100).bit_length(), 101u);
  EXPECT_EQ((one << 100) >> 100, one);
  const BigNum v(0xABCDu);
  EXPECT_EQ((v << 4).to_hex(), "abcd0");
  EXPECT_EQ((v >> 4).to_hex(), "abc");
}

TEST(BigNumTest, ModExpSmallKnown) {
  // 4^13 mod 497 = 445 (classic example)
  EXPECT_EQ(BigNum(4).modexp(BigNum(13), BigNum(497)), BigNum(445));
  // Fermat: a^(p-1) = 1 mod p
  const BigNum p(1000003);
  EXPECT_EQ(BigNum(12345).modexp(p - BigNum(1), p), BigNum(1));
}

TEST(BigNumTest, ModInverse) {
  common::Xorshift64 rng(17);
  const BigNum m = BigNum::generate_prime(64, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const BigNum a = BigNum(2) + BigNum::random_below(m - BigNum(3), rng);
    auto inv = BigNum::modinverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ((a * *inv).mod(m), BigNum(1));
  }
}

TEST(BigNumTest, ModInverseFailsWhenNotCoprime) {
  EXPECT_FALSE(BigNum::modinverse(BigNum(6), BigNum(9)).ok());
}

TEST(BigNumTest, PrimalityKnownValues) {
  common::Xorshift64 rng(23);
  EXPECT_TRUE(BigNum::is_probable_prime(BigNum(2), rng));
  EXPECT_TRUE(BigNum::is_probable_prime(BigNum(65537), rng));
  EXPECT_TRUE(BigNum::is_probable_prime(BigNum(1000003), rng));
  EXPECT_FALSE(BigNum::is_probable_prime(BigNum(1), rng));
  EXPECT_FALSE(BigNum::is_probable_prime(BigNum(1000001), rng));  // 101*9901
  EXPECT_FALSE(BigNum::is_probable_prime(BigNum(561), rng));  // Carmichael
}

TEST(BigNumTest, GeneratePrimeHasRequestedWidth) {
  common::Xorshift64 rng(31);
  const BigNum p = BigNum::generate_prime(80, rng);
  EXPECT_EQ(p.bit_length(), 80u);
  EXPECT_TRUE(p.is_odd());
}

BigNum hex(const char* h) {
  auto n = BigNum::from_hex(h);
  EXPECT_TRUE(n.ok()) << h;
  return *n;
}

// Expects a.divmod(b) == (q, r) and checks q * b + r == a, r < b.
void expect_divmod(const BigNum& a, const BigNum& b, const BigNum& q,
                   const BigNum& r) {
  auto dm = a.divmod(b);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ(dm->quotient.to_hex(), q.to_hex())
      << a.to_hex() << " / " << b.to_hex();
  EXPECT_EQ(dm->remainder.to_hex(), r.to_hex())
      << a.to_hex() << " % " << b.to_hex();
  EXPECT_EQ(dm->quotient * b + dm->remainder, a);
  EXPECT_TRUE(dm->remainder < b);
}

TEST(BigNumTest, KnuthDivisionEdgeCases) {
  // a < b: the quotient is zero and a comes back whole.
  expect_divmod(hex("1234"), hex("123456789abcdef0"), BigNum(0), hex("1234"));
  // One-limb divisors take the short-division path.
  expect_divmod(hex("ffffffffffffffffffffffff"), hex("ffffffff"),
                hex("10000000100000001"), BigNum(0));
  expect_divmod(hex("123456789abcdef0123"), BigNum(7),
                hex("299c335ccf668fdb97"), BigNum(2));
  // Equal-length operands: a single quotient limb.
  expect_divmod(hex("ffffffffffffffff"), hex("8000000000000000"), BigNum(1),
                hex("7fffffffffffffff"));
  expect_divmod(hex("fedcba9876543210"), hex("fedcba9876543210"), BigNum(1),
                BigNum(0));
  // Divisor top limb already normalised (shift 0)...
  expect_divmod(hex("ffffffffffffffffffffffffffffffff"),
                hex("800000000000000000000001"), hex("1ffffffff"),
                hex("7ffffffffffffffe00000000"));
  // ...and a top limb of 1 (shift 31).
  expect_divmod(hex("ffffffffffffffffffffffffffffffff"),
                hex("10000000000000001"), hex("ffffffffffffffff"), BigNum(0));
  expect_divmod(hex("ffffffffffffffffffffffffffffffffffffcfc7"),
                hex("1deadbeef00000001"), hex("88e903706caf13d93fc85ca6"),
                hex("1c251392cc0377321"));
}

TEST(BigNumTest, KnuthDivisionHackersDelightVectors) {
  // Operand pairs from the test table of Hacker's Delight `divmnu64`
  // (little-endian limbs there, big-endian hex here); quotient and
  // remainder from exact arithmetic.
  expect_divmod(hex("8000000000000000"), hex("40000001"), hex("1fffffff8"),
                hex("8"));
  expect_divmod(hex("8000000000000000"), hex("4000000000000001"), BigNum(1),
                hex("3fffffffffffffff"));
  expect_divmod(hex("12300004567000089ab"), hex("100000000"),
                hex("12300004567"), hex("89ab"));
  // q-hat overestimates and the third-limb test corrects it, once for the
  // high quotient limb and twice for the low one.
  expect_divmod(hex("80000000fffe00000000"), hex("80000000ffff"),
                hex("ffffffff"), hex("7fff0000ffff"));
  // These three need the D6 add-back: q-hat passes the third-limb test
  // yet is one too large.
  expect_divmod(hex("800000000000000000000003"),
                hex("200000000000000000000001"), BigNum(3),
                hex("200000000000000000000000"));
  expect_divmod(hex("80000000000000000003"), hex("20000000000000000001"),
                BigNum(3), hex("20000000000000000000"));
  expect_divmod(hex("7fff000080000000000000000000"),
                hex("80000000000000000001"), hex("fffe0000"),
                hex("7fffffffffff00020000"));
  // The multiply-subtract quantity must not be treated as signed (the
  // first of these also adds back).
  expect_divmod(hex("8000000000000000fffe00000000"),
                hex("8000000000000000ffff"), hex("ffffffff"),
                hex("7fffffffffff0000ffff"));
  expect_divmod(hex("8000000000000000fffffffe00000000"),
                hex("80000000000000000000ffff"), hex("100000000"),
                hex("fffeffff00000000"));
  expect_divmod(hex("8000000000000000fffffffe00000000"),
                hex("8000000000000000ffffffff"), hex("ffffffff"),
                hex("7fffffffffffffffffffffff"));
}

TEST(BigNumTest, KnuthDivisionRandomWidthsAndShifts) {
  // Every divisor width from 1 to 33 limbs, with normalisation shifts from
  // 31 down to 0, against the multiply-back invariant.
  common::Xorshift64 rng(77);
  for (std::size_t limbs = 1; limbs <= 33; ++limbs) {
    for (std::size_t top_bits : {1u, 2u, 17u, 31u, 32u}) {
      const BigNum b = BigNum::random_bits(32 * (limbs - 1) + top_bits, rng);
      const std::size_t a_bits = 32 * limbs + 1 + rng.next_u32() % 200;
      const BigNum a = BigNum::random_bits(a_bits, rng);
      auto dm = a.divmod(b);
      ASSERT_TRUE(dm.ok());
      EXPECT_EQ(dm->quotient * b + dm->remainder, a)
          << limbs << " limbs, top limb " << top_bits << " bits";
      EXPECT_TRUE(dm->remainder < b);
    }
  }
}

// (base ^ e) mod m by repeated multiply-then-mod over the bits of e.
BigNum naive_modexp(const BigNum& base, const BigNum& e, const BigNum& m) {
  BigNum result = BigNum(1).mod(m);
  const BigNum b = base.mod(m);
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    result = (result * result).mod(m);
    if (e.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

TEST(BigNumTest, ModExpMatchesNaiveReferenceAtEveryWidth) {
  common::Xorshift64 rng(1234);
  for (std::size_t limbs = 1; limbs <= 33; ++limbs) {
    for (bool odd : {true, false}) {
      BigNum m = BigNum::random_bits(32 * limbs - rng.next_u32() % 31, rng);
      if (m.is_odd() != odd) m = m + BigNum(1);
      // Base wider than m, so modexp has to reduce it first.
      const BigNum base = BigNum::random_bits(32 * limbs + 40, rng);
      const BigNum e = BigNum::random_bits(1 + rng.next_u32() % 96, rng);
      EXPECT_EQ(base.modexp(e, m), naive_modexp(base, e, m))
          << "limbs " << limbs << (odd ? " odd" : " even");
    }
  }
}

TEST(BigNumTest, ModExpEdgeCases) {
  common::Xorshift64 rng(4321);
  BigNum m = BigNum::random_bits(200, rng);
  if (!m.is_odd()) m = m + BigNum(1);
  const BigNum even_m = m + BigNum(1);
  const BigNum x = BigNum::random_bits(150, rng);
  for (const BigNum& mod : {m, even_m}) {
    EXPECT_EQ(x.modexp(BigNum(0), mod), BigNum(1));   // exponent 0
    EXPECT_EQ(BigNum(0).modexp(BigNum(5), mod), BigNum(0));
    EXPECT_EQ(mod.modexp(BigNum(3), mod), BigNum(0));  // base == m
    EXPECT_EQ((mod + x).modexp(BigNum(3), mod),       // base > m
              naive_modexp(x, BigNum(3), mod));
    EXPECT_EQ((mod - BigNum(1)).modexp(BigNum(2), mod), BigNum(1));
  }
  // m = 1: everything is 0, exponent 0 included.
  EXPECT_EQ(x.modexp(BigNum(0), BigNum(1)), BigNum(0));
  EXPECT_EQ(x.modexp(BigNum(7), BigNum(1)), BigNum(0));
  // m = 2, the smallest even modulus.
  EXPECT_EQ(BigNum(3).modexp(BigNum(5), BigNum(2)), BigNum(1));
  // All-ones odd modulus: every limb at its maximum.
  const BigNum ones = (BigNum(1) << 256) - BigNum(1);
  EXPECT_EQ(x.modexp(BigNum(65537), ones),
            naive_modexp(x, BigNum(65537), ones));
}

// ---------------------------------------------------------------------------
// RSA
// ---------------------------------------------------------------------------

TEST(Rsa, EncryptDecryptRoundTrip) {
  common::Xorshift64 rng(101);
  const RsaKeyPair kp = rsa_generate(256, rng);
  const std::vector<u8> msg = {'s', 'e', 's', 's', 'i', 'o', 'n', 'k'};
  auto ct = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(ct.ok()) << ct.status().to_string();
  EXPECT_EQ(ct->size(), kp.pub.modulus_bytes());
  auto pt = rsa_decrypt(kp.priv, *ct);
  ASSERT_TRUE(pt.ok()) << pt.status().to_string();
  EXPECT_EQ(*pt, msg);
}

TEST(Rsa, RoundTripAt512And1024Bits) {
  common::Xorshift64 rng(106);
  for (std::size_t bits : {512u, 1024u}) {
    const RsaKeyPair kp = rsa_generate(bits, rng);
    // Two (bits/2)-bit primes multiply to bits or bits - 1 bits.
    EXPECT_GE(kp.pub.n.bit_length(), bits - 1);
    std::vector<u8> msg(48);
    rng.fill(msg);
    auto ct = rsa_encrypt(kp.pub, msg, rng);
    ASSERT_TRUE(ct.ok()) << ct.status().to_string();
    auto pt = rsa_decrypt(kp.priv, *ct);
    ASSERT_TRUE(pt.ok()) << pt.status().to_string();
    EXPECT_EQ(*pt, msg) << bits << "-bit modulus";
  }
}

TEST(Rsa, PaddingIsRandomized) {
  common::Xorshift64 rng(102);
  const RsaKeyPair kp = rsa_generate(256, rng);
  const std::vector<u8> msg = {1, 2, 3};
  auto c1 = rsa_encrypt(kp.pub, msg, rng);
  auto c2 = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(*c1, *c2);
}

TEST(Rsa, RejectsOversizeMessage) {
  common::Xorshift64 rng(103);
  const RsaKeyPair kp = rsa_generate(256, rng);
  std::vector<u8> msg(kp.pub.modulus_bytes() - 10, 0x41);
  EXPECT_FALSE(rsa_encrypt(kp.pub, msg, rng).ok());
}

TEST(Rsa, WrongKeyFailsCleanly) {
  common::Xorshift64 rng(104);
  const RsaKeyPair kp1 = rsa_generate(256, rng);
  const RsaKeyPair kp2 = rsa_generate(256, rng);
  const std::vector<u8> msg = {9, 9, 9};
  auto ct = rsa_encrypt(kp1.pub, msg, rng);
  ASSERT_TRUE(ct.ok());
  auto pt = rsa_decrypt(kp2.priv, *ct);
  // Either explicit padding failure or garbage != msg; both acceptable,
  // but it must not crash and must not return the plaintext.
  if (pt.ok()) {
    EXPECT_NE(*pt, msg);
  }
}

TEST(Rsa, TamperedCiphertextRejectedOrGarbage) {
  common::Xorshift64 rng(105);
  const RsaKeyPair kp = rsa_generate(256, rng);
  const std::vector<u8> msg = {7, 7, 7, 7};
  auto ct = rsa_encrypt(kp.pub, msg, rng);
  ASSERT_TRUE(ct.ok());
  (*ct)[5] ^= 0x80;
  auto pt = rsa_decrypt(kp.priv, *ct);
  if (pt.ok()) {
    EXPECT_NE(*pt, msg);
  }
}

}  // namespace
}  // namespace rmc::crypto
