// AES-256 and CTR-mode tests against FIPS-197 / NIST SP 800-38A vectors.

#include <gtest/gtest.h>

#include "dhl/common/hexdump.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/crypto/aes.hpp"

namespace dhl::crypto {
namespace {

std::array<std::uint8_t, 32> key_from_hex(const std::string& hex) {
  const auto v = from_hex(hex);
  std::array<std::uint8_t, 32> key{};
  std::copy(v.begin(), v.end(), key.begin());
  return key;
}

TEST(Aes256, Fips197AppendixC3) {
  // FIPS-197 C.3: AES-256 with key 000102...1f, plaintext 00112233...ff.
  const auto key = key_from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto pt = from_hex("00112233445566778899aabbccddeeff");
  Aes256 aes{key};
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex({ct, 16}), "8ea2b7ca516745bfeafc49904b496089");

  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex({back, 16}), "00112233445566778899aabbccddeeff");
}

TEST(Aes256, Sp80038aCtrVectors) {
  // NIST SP 800-38A F.5.5: CTR-AES256.Encrypt.
  const auto key = key_from_hex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const auto counter = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const auto pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const std::string expected =
      "601ec313775789a5b7a7f504bbf3d228"
      "f443e3ca4d62b59aca84e990cacaf5c5"
      "2b0930daa23de94ce87017ba2d84988d"
      "dfc9c58db67aada613c2dd08457941a6";

  Aes256 aes{key};
  std::vector<std::uint8_t> ct(pt.size());
  std::span<const std::uint8_t, 16> ctr{counter.data(), 16};
  aes256_ctr(aes, ctr, pt, ct);
  EXPECT_EQ(to_hex(ct), expected);

  // CTR is its own inverse.
  std::vector<std::uint8_t> back(ct.size());
  aes256_ctr(aes, ctr, ct, back);
  EXPECT_EQ(back, pt);
}

TEST(Aes256, CtrHandlesNonBlockMultiples) {
  const auto key = key_from_hex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Aes256 aes{key};
  std::array<std::uint8_t, 16> ctr{};
  for (const std::size_t len : {1u, 7u, 15u, 17u, 31u, 100u}) {
    std::vector<std::uint8_t> pt(len, 0xab);
    std::vector<std::uint8_t> ct(len);
    std::vector<std::uint8_t> back(len);
    aes256_ctr(aes, ctr, pt, ct);
    aes256_ctr(aes, ctr, ct, back);
    EXPECT_EQ(back, pt) << "len=" << len;
    if (len > 4) {
      EXPECT_NE(ct, pt);
    }
  }
}

TEST(Aes256, CounterIncrementCarriesAcrossBytes) {
  const auto key = key_from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Aes256 aes{key};
  // Counter ...ff ff: the second block must wrap the low bytes upward, not
  // reuse the keystream.
  std::array<std::uint8_t, 16> ctr{};
  ctr.fill(0xff);
  std::vector<std::uint8_t> zeros(48, 0);
  std::vector<std::uint8_t> ks(48);
  aes256_ctr(aes, ctr, zeros, ks);
  // Three distinct keystream blocks.
  EXPECT_NE(to_hex({ks.data(), 16}), to_hex({ks.data() + 16, 16}));
  EXPECT_NE(to_hex({ks.data() + 16, 16}), to_hex({ks.data() + 32, 16}));
}

class AesRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

// Property: decrypt(encrypt(x)) == x for random keys and blocks.
TEST_P(AesRoundTrip, RandomBlocks) {
  Xoshiro256 rng{GetParam()};
  std::array<std::uint8_t, 32> key{};
  rng.fill(key.data(), key.size());
  Aes256 aes{key};
  for (int i = 0; i < 200; ++i) {
    std::uint8_t pt[16], ct[16], back[16];
    rng.fill(pt, 16);
    aes.encrypt_block(pt, ct);
    aes.decrypt_block(ct, back);
    ASSERT_TRUE(std::equal(pt, pt + 16, back));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AesRoundTrip, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace dhl::crypto
