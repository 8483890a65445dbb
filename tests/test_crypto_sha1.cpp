// SHA-1 (FIPS 180-4) and HMAC-SHA1 (RFC 2202) vector tests.
//
// Every vector runs under the scalar cap and under each tier the host
// supports (CapGuard pattern from test_simd_parity): the block kernel picks
// SHA-NI from the sse42 tier up where the CPU has it, so both arms are
// pinned to published or independently computed values, not to each other.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dhl/common/hexdump.hpp"
#include "dhl/common/simd.hpp"
#include "dhl/crypto/sha1.hpp"

namespace dhl::crypto {
namespace {

namespace simd = common::simd;

/// Restore the ambient cap (environment or a prior set_cap) on scope exit.
struct CapGuard {
  simd::Isa prev = simd::cap();
  ~CapGuard() { simd::set_cap(prev); }
};

/// Every tier this host can execute, scalar first.
std::vector<simd::Isa> host_tiers() {
  std::vector<simd::Isa> tiers;
  for (int t = 0; t <= static_cast<int>(simd::kMaxIsa); ++t) {
    const auto isa = static_cast<simd::Isa>(t);
    if (simd::host_supports(isa)) tiers.push_back(isa);
  }
  return tiers;
}

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Message byte i of the every-length vectors below.
std::uint8_t prefix_byte(std::size_t i) {
  return static_cast<std::uint8_t>((i * 131 + 17) % 256);
}

/// SHA-1 of the first n bytes of prefix_byte(0..), n = 0..130, computed
/// with Python's hashlib.  Lengths 55/56 (and 119/120) are where the
/// padding spills into a second block.
constexpr const char* kPrefixDigests[] = {
    "da39a3ee5e6b4b0d3255bfef95601890afd80709",  // 0
    "a8abd012eb59b862bf9bc1ea443d2f35a1a2e222",  // 1
    "32541e07b1bc39d03f1f73dc28bda8f7083fa907",  // 2
    "f1cab2819134d2787cf47b8aed7695c80083d835",  // 3
    "556ed49ed8ef1f3a0201b10dfb1f8a90f2a306f5",  // 4
    "8311fc850950edae8abe7de6b30a6bef528c8c0e",  // 5
    "625fdb37d690e345aa19a0951b2292a35fe366a0",  // 6
    "cb65ae6489ddfdc6d18affbc778fb08c207cf241",  // 7
    "d7d5e8643bb0f896024ebfa1b572a98c6b327cdc",  // 8
    "fdd10e8db48e322c8e2ecae74288b1a7fa907699",  // 9
    "606d3ce373a91a71aa32804f799d151583188f61",  // 10
    "18fa481e4fa800bdd59e3db72abdb4a82a978a10",  // 11
    "a6690a466d1b711b82e2844e7c42d854d4fb6520",  // 12
    "8bf19ccdbd60a7492ef79e280147aa0f159f70ea",  // 13
    "4213d2788ec06802c232c3a6e2af1b37e3e3e181",  // 14
    "3f07f09637f86f37ff11c2b70a5a98d3f71a8d90",  // 15
    "8a446b46bcd15457292193270077f04eb96650ea",  // 16
    "7c95062acba83dc08eaecc5e13d91684f7b56bfe",  // 17
    "3363e449cfb07e0241b3c4f16c95747875e72ad9",  // 18
    "6fc7a83e4a2f23440dbea66b70f1a545711a0fe6",  // 19
    "331fd24de14ab9be5f5f3a58706bc154841db132",  // 20
    "e31f7c257b90c6aa466616c8c9ed8af446db59b1",  // 21
    "21e10329a2c833938ca2e23b9e25ab47218e4c92",  // 22
    "976942de28c0ef3133e5e1487cce07f3f138c918",  // 23
    "1020d019cc333bbf7e9b0937d59c12b0110902b5",  // 24
    "17c0637200097d0c8fc9cad0c459500f3c8996d1",  // 25
    "f8324b602789f4f7acf361178181d39c4232dc51",  // 26
    "b17188f47f28da416daca234aeedf0fac86fcf35",  // 27
    "dda54c553dc73d0ef5fb3bb732d1bc46e150c832",  // 28
    "a285b0796936b286856f2c5bec480e2a4552fd52",  // 29
    "a4cb658a59b778303c0adfa5d02b0682fb7352ff",  // 30
    "66e1e497aef2d1bf76c37f2e60539020a5237e0b",  // 31
    "5bb91e40d3f2b938ff6ab16cfa73eaa661646ee4",  // 32
    "6407d5d9165c67b190ff73482dc03b4f1a4d595a",  // 33
    "5b72f3b9cf5faa1de86d3baf3d8bffd08a595220",  // 34
    "5d6a3840efed6915352ec6205df67778df87dfc1",  // 35
    "f6f2925ea9fd3c0121b0e0e4ab302d1f5f4770ba",  // 36
    "d116f58e84ef2b91ff672502e3e728bf1db007d1",  // 37
    "9d76a81573ae4fe90318bd8e0bc6ed059426bb6c",  // 38
    "34ee77b6a60be2e3e593af5223b8f0668ad5d833",  // 39
    "f59def1bed421c1082544823a7e0340fb13645c3",  // 40
    "2793cb2316f0bd5b20cb40bef34ac17692d0aa0d",  // 41
    "e2e97fe2f178361e19297b20d9fa5be95245e33e",  // 42
    "e9476a98de7d77564eb2e095ef9a94ef589894f3",  // 43
    "547b0ff6869e888364c438b057e40475d4115b7b",  // 44
    "c908ff8b16460e7fd8879744c32b289c1b6c8fa4",  // 45
    "3ca2f1a462726972f0ffae5f6bc75233efdff6a9",  // 46
    "d2d5021147538973b5188fbb822ae16f008d3ce0",  // 47
    "0365598fc8919ba34f5a76784e814eaca410c554",  // 48
    "2eebebf35c738ddeaa3234385d7069f0c2d1c8d2",  // 49
    "bbd469464d4e31cea3a984e62d28feebd6805982",  // 50
    "6085d54907efb2123a6d095a78142952fe3c79a5",  // 51
    "53ea89ca521da7bed1911cd66097605333464d20",  // 52
    "0702ed4d920a1bbd3185f3ca62cb05a03b849fd1",  // 53
    "1334c067622bd730732e37047be7ed9ba34221b8",  // 54
    "c460dda9725993db7b635e25646d4fcd9bd30871",  // 55
    "1794a43ae77e95e8cc39a31e2727c58c718ce53f",  // 56
    "f1f9f3508b8e3b4ba0d269da0296f7f5d2841d08",  // 57
    "65f83e388459979cb91e95a5b0f8b2c55daf997f",  // 58
    "8dffd8fd794445f6454af1248f7a78e5ae760807",  // 59
    "f125934a1ea38ac366aaf23998df005e49ef36d0",  // 60
    "a46c2b53ac9438aae7f8f4252d64bd0a4f33ffc9",  // 61
    "f186bd4461fb00468a728232731162fb8c4f79a5",  // 62
    "5274fdff2cc6384f500028c1e794d62aed870966",  // 63
    "8477cdffd4b543880bcf926612a161e4a08abfbf",  // 64
    "180b0aab8816d0ef092f1224dfc0568d08c22fe9",  // 65
    "ac9865d2860a1a00b84eb0d0cc248d760a13d9b5",  // 66
    "ee2889b1db28358afd9ea5d1b0df0d8071d73ab3",  // 67
    "ed1e641e0b046b3734598e0c64b8b9c26252cfac",  // 68
    "0307c7d1e01b1cb986b8021a5e998e53a4f4a308",  // 69
    "085590d5a7021e65daad6df2e17e9e6305e35690",  // 70
    "4ec3a63a4395d712a5cc6149eb32b5c62f3fa4e1",  // 71
    "1a32e55c32b8463d70a17daa2b133dfdda90ab70",  // 72
    "426e1f8231ab23a564918c6e93a054bd04f7c76c",  // 73
    "3fc40b4ecc4b06f059a0a8ff4d8250b4dd7b6e13",  // 74
    "a99dc17ac59286c31835ba225f793c828f4361a3",  // 75
    "fc2d3af01140dcf0e7c3506bf3cba934a81935e9",  // 76
    "d706ee1efc5d32dd15d0883e8b2c21a76dbdb92c",  // 77
    "080d4f58879ba96259d5a334f7017b7f2345bf0c",  // 78
    "662f20f9b36a3ef7047535cc505454efa517961e",  // 79
    "f01752ad11cfbf9046d994bf886f451163dbdc9a",  // 80
    "297ffe14db1f77c4368330dad28dff5d50167add",  // 81
    "14f3eb5c05a50c27207c11a5d5a0c7aa8f8d8d2b",  // 82
    "9a454482e56a7bcaa255a090bda39402d0ea7592",  // 83
    "7d0dc25b9065153eefe395d00b889f3e282a0d81",  // 84
    "84e78d77c266a9fc6a8ab3b1ab8cb3318369ecde",  // 85
    "56b28673615aa4e2eab643ca727308e5fd49438a",  // 86
    "8259ccb5aad55f3595454d9a826fc05913cacde9",  // 87
    "b5193b1c73402218d4648f064626ee35f2094014",  // 88
    "16fe5f171ae8befbc7bc94f9fd00a5b85237b5ca",  // 89
    "fd2e7793f2b36df8e1dc3925f902e7c42ef36ac8",  // 90
    "cdac1bf53dc9f4bfcb8b81a07608c77ad76ab549",  // 91
    "e547f992d963c1830cbad34393ec59a1f0ef1d41",  // 92
    "8d31b3678e391bd494bcf5ad1203be694eb16463",  // 93
    "72d080c5c35dca6a79be86c0f3939af627e45f39",  // 94
    "49b75d022ec18914d344a7f54410fe3bb5a1b38d",  // 95
    "8ceedc63a18a6bb4a91bfaa0a169db8d757c17df",  // 96
    "3b27a7e2055e11f794932ad27f0fca71a1f6a814",  // 97
    "fc99ad8b59dd504f884e8d6a658e8fb5a64137f3",  // 98
    "f2686a959f4cc5c58ffb3f16dc62993e7bcf53ce",  // 99
    "0c976c8e2489a73a4a9482e66a5df1611a9a9215",  // 100
    "e9f9c52258d75f84fdbd3df590fa55409f16ecfb",  // 101
    "f9a9f2f986f5471a85930e2c2f0a7c8785b93349",  // 102
    "8fb2629c8113b01760e3fe2c541dd913258fb8d1",  // 103
    "717e927eba6d82bcab28710294a24f1bcfff5997",  // 104
    "c605a411de6ab755cddd3025c911c2a5617cd75e",  // 105
    "9a4dba7d83ce83062aba743ee28abc8cf289e6cf",  // 106
    "1442b47b78e3a683cc89d17cf26d8e0ecfec4340",  // 107
    "92eac53a3ec44622d39ab3bab71adb6e853ef0d7",  // 108
    "8902dd8c247cf9890dc3d4a9f83e88cbd29b0d35",  // 109
    "954661102438b1d7e22ab7204ab8c4e6c3a1fe6c",  // 110
    "7089262dace1d86ce7c3801bf4f71fd0afcec009",  // 111
    "fac67fbc1504e5e84a55610c7def6e7de6fd5172",  // 112
    "57cf8398d3eb773cd393914766b7111c184b8296",  // 113
    "cfca9ee7c3d57daa7f23b6cab2f897308227893d",  // 114
    "8b93cc87e40f093c93473ac45db56b146467fc47",  // 115
    "19ce0583471d27be93614681368cff5a9da948eb",  // 116
    "190030447a5c7a1349ee030c3266423229e84609",  // 117
    "bdc0a9b8ba27d303882299811da2abb5a3a958ac",  // 118
    "10048d4c29cba635734b5f686a1942dfeb8239d9",  // 119
    "384a2c7f5a8eb395fab7a1ae5ec76f08ccaac277",  // 120
    "fe8c21dc0700fc559b04e0b4ed763d7ce5519e74",  // 121
    "043f8f273154d83969c886924edfa8140c2416f3",  // 122
    "ddb8e0a0f3728937b932a78a3c20505d46a96b4d",  // 123
    "9a0f3ec4fc4c63e70f599f06211dbd88a3a54d89",  // 124
    "e8cb5e00a465a2f8eb61a4f1cab9133d066fed8a",  // 125
    "018abe5698bfe53dc71316937d132838578a9220",  // 126
    "29d7c61615e0894d423d060678ee674652617c81",  // 127
    "dc9f7cd67239c5030128aa4f129b865adc64d2a3",  // 128
    "e9c20ff8b05321dadd7e9c320e29fe460559f31d",  // 129
    "0c313a181a30601c21ca307c7e447896554e2e2c",  // 130
};

TEST(Sha1, Fips180Vectors) {
  CapGuard guard;
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    SCOPED_TRACE(simd::to_string(isa));
    EXPECT_EQ(to_hex(Sha1::digest(bytes("abc"))),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(to_hex(Sha1::digest(bytes(""))),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    EXPECT_EQ(
        to_hex(Sha1::digest(bytes(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
    EXPECT_EQ(to_hex(Sha1::digest(bytes(
                  "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                  "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
              "a49b2446a02c645bf419f995b67091253a04a259");
  }
}

TEST(Sha1, MillionAs) {
  CapGuard guard;
  const std::string chunk(1000, 'a');
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    Sha1 s;
    for (int i = 0; i < 1000; ++i) s.update(bytes(chunk));
    std::array<std::uint8_t, Sha1::kDigestBytes> d{};
    s.finish(d);
    EXPECT_EQ(to_hex(d), "34aa973cd4c4daa4f61eeb2bdbad27316534016f")
        << simd::to_string(isa);
  }
}

TEST(Sha1, EveryLengthTo130) {
  CapGuard guard;
  constexpr std::size_t kMaxLen = std::size(kPrefixDigests) - 1;
  std::vector<std::uint8_t> msg(kMaxLen);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = prefix_byte(i);
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      EXPECT_EQ(to_hex(Sha1::digest({msg.data(), n})), kPrefixDigests[n])
          << "len=" << n << " isa=" << simd::to_string(isa);
    }
  }
}

TEST(Sha1, IncrementalMatchesOneShot) {
  CapGuard guard;
  const std::string msg =
      "the quick brown fox jumps over the lazy dog multiple times to cross "
      "block boundaries in interesting ways 0123456789";
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    for (std::size_t split = 0; split <= msg.size(); split += 7) {
      Sha1 s;
      s.update(bytes(msg.substr(0, split)));
      s.update(bytes(msg.substr(split)));
      std::array<std::uint8_t, Sha1::kDigestBytes> d{};
      s.finish(d);
      EXPECT_EQ(to_hex(d), to_hex(Sha1::digest(bytes(msg))))
          << split << " isa=" << simd::to_string(isa);
    }
  }
}

TEST(HmacSha1, Rfc2202Vectors) {
  struct Case {
    std::vector<std::uint8_t> key;
    std::string data;
    const char* mac;
  };
  std::vector<std::uint8_t> key4;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key4.push_back(b);
  const std::vector<Case> cases{
      {std::vector<std::uint8_t>(20, 0x0b), "Hi There",
       "b617318655057264e28bc0b6fb378c8ef146be00"},
      {{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
      {std::vector<std::uint8_t>(20, 0xaa), std::string(50, '\xdd'),
       "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
      {key4, std::string(50, '\xcd'),
       "4c9007f4026250c6bc8414f9bf50c86c2d7235da"},
      {std::vector<std::uint8_t>(20, 0x0c), "Test With Truncation",
       "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"},
      // Cases 6 and 7: an 80-byte key, longer than the block, is hashed.
      {std::vector<std::uint8_t>(80, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
      {std::vector<std::uint8_t>(80, 0xaa),
       "Test Using Larger Than Block-Size Key and Larger Than One "
       "Block-Size Data",
       "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"},
  };
  CapGuard guard;
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const HmacSha1 mac{cases[i].key};
      EXPECT_EQ(to_hex(mac.mac(bytes(cases[i].data))), cases[i].mac)
          << "case " << i + 1 << " isa=" << simd::to_string(isa);
    }
  }
  // Case 5 is the RFC's truncation vector: its 96-bit ICV is the prefix.
  const HmacSha1 mac{cases[4].key};
  std::array<std::uint8_t, HmacSha1::kIpsecIcvBytes> icv{};
  mac.icv96(bytes(cases[4].data), icv);
  EXPECT_EQ(to_hex(icv), "4c1a03424b55e07fe7f27be1");
}

TEST(HmacSha1, EveryLengthTo130) {
  // SHA-1 over the concatenated 20-byte MACs of prefix_byte messages of
  // length 0..130 under the key 0x10..0x23, computed with Python's hmac.
  CapGuard guard;
  std::vector<std::uint8_t> key(20), msg(130);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x10 + i);
  }
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = prefix_byte(i);
  for (const auto isa : host_tiers()) {
    simd::set_cap(isa);
    const HmacSha1 mac{key};
    Sha1 all;
    for (std::size_t n = 0; n <= msg.size(); ++n) {
      all.update(mac.mac({msg.data(), n}));
    }
    std::array<std::uint8_t, Sha1::kDigestBytes> d{};
    all.finish(d);
    EXPECT_EQ(to_hex(d), "33afcde715775d130df857c5084efe9dfd59139e")
        << simd::to_string(isa);
  }
}

TEST(HmacSha1, Icv96IsTruncatedMac) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  HmacSha1 mac{key};
  const auto full = mac.mac(bytes("Hi There"));
  std::array<std::uint8_t, HmacSha1::kIpsecIcvBytes> icv{};
  mac.icv96(bytes("Hi There"), icv);
  EXPECT_TRUE(std::equal(icv.begin(), icv.end(), full.begin()));
  EXPECT_TRUE(mac.verify96(bytes("Hi There"), icv));
}

TEST(HmacSha1, Verify96RejectsTamper) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  HmacSha1 mac{key};
  std::array<std::uint8_t, HmacSha1::kIpsecIcvBytes> icv{};
  mac.icv96(bytes("payload"), icv);
  EXPECT_TRUE(mac.verify96(bytes("payload"), icv));
  EXPECT_FALSE(mac.verify96(bytes("payloaD"), icv));
  icv[0] ^= 1;
  EXPECT_FALSE(mac.verify96(bytes("payload"), icv));
}

TEST(HmacSha1, DifferentKeysDiffer) {
  const std::vector<std::uint8_t> k1(20, 0x01), k2(20, 0x02);
  HmacSha1 a{k1}, b{k2};
  EXPECT_NE(to_hex(a.mac(bytes("x"))), to_hex(b.mac(bytes("x"))));
}

}  // namespace
}  // namespace dhl::crypto
