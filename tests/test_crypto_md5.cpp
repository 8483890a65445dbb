// MD5 tests against the RFC 1321 test suite.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>

#include "dhl/common/hexdump.hpp"
#include "dhl/crypto/md5.hpp"

namespace dhl::crypto {
namespace {

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Md5, Rfc1321Suite) {
  EXPECT_EQ(to_hex(Md5::digest(bytes(""))),
            "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(to_hex(Md5::digest(bytes("a"))),
            "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(to_hex(Md5::digest(bytes("abc"))),
            "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(to_hex(Md5::digest(bytes("message digest"))),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(to_hex(Md5::digest(bytes("abcdefghijklmnopqrstuvwxyz"))),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(to_hex(Md5::digest(bytes(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345678"
                "9"))),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(to_hex(Md5::digest(bytes(
                "1234567890123456789012345678901234567890123456789012345678901"
                "2345678901234567890"))),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string msg(300, 'q');
  for (std::size_t split : {0u, 1u, 55u, 56u, 63u, 64u, 65u, 128u, 300u}) {
    Md5 m;
    m.update(bytes(msg.substr(0, split)));
    m.update(bytes(msg.substr(split)));
    std::array<std::uint8_t, Md5::kDigestBytes> d{};
    m.finish(d);
    EXPECT_EQ(to_hex(d), to_hex(Md5::digest(bytes(msg)))) << split;
  }
}

TEST(Md5, EveryPaddingLength) {
  // MD5 of the first n bytes of 00 01 02 ... for n = 0..130 (Python
  // hashlib): every tail length the padding can see, one and two final
  // blocks, and messages of zero, one and two whole blocks before them.
  static const char* const kDigests[] = {
      "d41d8cd98f00b204e9800998ecf8427e", "93b885adfe0da089cdf634904fd59f71",
      "441077cc9e57554dd476bdfb8b8b8102", "b95f67f61ebb03619622d798f45fc2d3",
      "37b59afd592725f9305e484a5d7f5168", "d05374dc381d9b52806446a71c8e79b1",
      "d15ae53931880fd7b724dd7888b4b4ed", "9aa461e1eca4086f9230aa49c90b0c61",
      "3677509751ccf61539174d2b9635a7bf", "a6e7d3b46fdfaf0bde2a1f832a00d2de",
      "c56bd5480f6e5413cb62a0ad9666613a", "5b86fa8ad8f4357ea417214182177be8",
      "50a73d7013e9803e3b20888f8fcafb15", "b20d4797e23eea3ea5778970d2e226f3",
      "aa541e601b7b9ddd0504d19866350d4e", "58b7ce493ac99c66058538dacb1e3c94",
      "1ac1ef01e96caf1be0d329331a4fc2a8", "1bdd36b0a024c90db383512607293692",
      "633ab81aea5942052b794524e1a28477", "2d325313eb5df436c078435fa0f5eff1",
      "1549d1aae20214e065ab4b76aaac89a8", "7e437c81824d3982e70c88b5da8ea94b",
      "2f5f7e7216832ae19c353023618a35a8", "6535e52506c27eaa1033891ff4f3a74e",
      "8bd9c8efbbac58748951ca5a45cfd386", "d983c63bf41853056787fe1bb764dbff",
      "b4f24c1219fb00d081c4020c56263451", "b0ae6708c5e1be10668f57d3916cf423",
      "ba7bb5ad4dba5bde028703007969cb25", "ea880e16eac1b1488aff8a25d11d6271",
      "c7172f0903c4919eb232f18ab7a30c42", "e9e77893ba926e732f483282f416ffac",
      "b4ffcb23737cec315a4a4d1aa2a620ce", "5506a276a0a9acc3093f9169c73cf8c5",
      "e5a849897d9cc0b25b286c1f0bfb50e3", "f54fa30ea7b26d3e11c54d3c8451bcf0",
      "07602fe0229e486957081a49e3f06f83", "7c4bba98253ca834bf9ed43fd8b2f959",
      "cf8df427548bbfdb1e11143fdf008b85", "1431a6895a8f435755395f9ba83e76bf",
      "30dd5e4cae35ba892cc66d7736723980", "8ee247a1063931bedaf4c2fa3e4e261a",
      "c32ceee2d2245df8589f94fcda0c9f2c", "f25fa0e071d1f1cdc6632c6b673bccd5",
      "370491b643e97577f4f74bd88576d1ec", "b292bf16e3aafaf41f19c921068214f8",
      "52921aae5ccc9b6e8e45853419d0c80f", "f1375be31969155ef76f04741cd861d7",
      "04605ca542b2d82b9886a4b4b9acfb1c", "fa887ba0fa491faaacbb82bc5fefcd5b",
      "06470e932ad7c7cedf548b5ccb9d4806", "ad130b245e2dd894267cb0ddc532d169",
      "a9eeb95053682248608e97d79e89ca82", "cc26a3dc608268b98ecd1f3946c4b718",
      "33dd62a2df6538daf1cf821d9cde61f9", "6912ee65fff2d9f9ce2508cddf8bcda0",
      "51fdd1acda72405dfdfa03fcb85896d7", "5320ef4c17ef34a0cf2db763338d25eb",
      "9f4f41b5cde885f94cfc0e06e78f929d", "e39965bc00ecacd90fd875f77eff499a",
      "63ed72093ae09e2c8553ee069e63d702", "0d08fc14ac5baa37792377355dbad0ae",
      "f3cdffe2e160a061754a06dafcfd688b", "48a6295221902e8e0938f773a7185e72",
      "b2d3f56bc197fd985d5965079b5e7148", "8bd7053801c768420faf816fadba971c",
      "e58b3261a467f02ba51b215c013df4c3", "73062234b55754c3383480d5ef70dce5",
      "f752ebd79a813ef27c35bed69e2ee69f", "10907846eb89ef5dc5d4935a09dad0e7",
      "5f1f5f64b84400fb9ad6d8ecd9c142a0", "3157d7bb98a202b50cf0c437aa216c39",
      "70e7ade70281b0afcb1d4ed13efc2e25", "0bb96a503b1626c9ab16c1291c663e75",
      "5bed4126b3c973f685fcf92a738d4dab", "7523c240f2a44e86dd22504ca49f098d",
      "6710949ed8ae17c44fb77496bedcb2ab", "4a4c43373b9e40035e6e40cba227ce0b",
      "91977cbcc32cdeaec7a0fa24bb948d6a", "a6a0f1373cf3dbee116df2738d6f544d",
      "761f6d007f6e5c64c8d161a5ced4e0aa", "d44ea4d5a7074b88883a82f2b4cfbe67",
      "3097eda5666e2b2723e8949fcff2f244", "ab247a3d9bc600f594d5a6c50b80583f",
      "b229430e3db2dfdd13aa1da1bac14d5c", "befef62987c6dcdf24febd0bb7cd3678",
      "bfc3e5c7c461500ff085a66548378e0e", "a5712194537c75f0dd5a5ab3e9ebaf03",
      "8daac097e9044b85b75999d6c3bccd24", "b8124df21129685597c53a3f606ffd28",
      "8fbc4d795c22d958248582a8df7332ed", "36d217135db136b2bdf1617d7e9c79ce",
      "1b3e6271a3a4b663c509a1255027ca99", "a25f596574031ff9c34314c1b1f6bf34",
      "aca7017e5bb62bfdd5bbfded78c8987a", "8129e53a694add0560b1534b32fe5912",
      "da0e48224106c7535a4cd8db2ac7b8e3", "cbd4ace3d766d8e44f63e0de8f110f04",
      "bdc17a0ef2777512cb402c90e9d13e31", "47695ad6af968d6f1cdd2d8c5c87a466",
      "7acedd1a84a4cfcb6e7a16003242945e", "225489d3d073ac705f7b3ad358eabab2",
      "301da87a7b2ec27514c3a2789d5dbe49", "16222c503718f1420958133c330fe3f8",
      "d778ce7f642aa23355948477da4cc11c", "e873c37f8977e200a594b815e1a87ef3",
      "e8f8f41528d4f855d8fdf4055bbabe2f", "cacf3d3d1e7d21c97d265f64d9864b75",
      "6bf48f161eff9f7005bd6667f30a5c27", "42e7bb8e780b3b26616ecbcace81fa1a",
      "225afd8ec21f86f66211adf54afc2e86", "4fad3ab7d8546851ec1bb63ea7e6f5a8",
      "d1fec2ac3715e791ca5f489f300381b3", "f62807c995735b44699bb8179100ce87",
      "54050b090344e3284f390806ff716371", "50482241280543b88f7af3fc13d65c65",
      "4c36f27d4786fe2fb8caac690b6d62f7", "5a0edf0b97977ee5afb3d185b64fb610",
      "4541055c6675b614d27c537c3bb15675", "1c772251899a7ff007400b888d6b2042",
      "b7ba1efc6022e9ed272f00b8831e26e6", "b0b2d719a838db877b6d6571a39a1cdc",
      "800aa956ec16f603ecdba66c2dc6e4cf", "8827d2778287c58a242acd4c549beb31",
      "cfbc5aa0b61103c1a982d8927b26f575", "a1f5b691f74f566a2be1765731084f8a",
      "80749be03f5724fa4ca0aef8909379b7", "8402b21e7bc7906493bae0dac017f1f9",
      "37eff01866ba3f538421b30b7cbefcac", "46f986692847558fc38b0cece591c20f",
      "7c05c285d0263c40a0437421b387a2a1",
  };
  std::uint8_t msg[130];
  for (std::size_t i = 0; i < sizeof(msg); ++i) {
    msg[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_EQ(std::size(kDigests), sizeof(msg) + 1);
  for (std::size_t n = 0; n <= sizeof(msg); ++n) {
    EXPECT_EQ(to_hex(Md5::digest({msg, n})), kDigests[n]) << "len=" << n;
  }
}

TEST(Md5, RoundConstantsAreSineDerived) {
  // The transcribed table must equal its RFC 1321 definition,
  // K[i] = floor(2^32 * |sin(i + 1)|).
  for (std::size_t i = 0; i < Md5::kK.size(); ++i) {
    const double k = std::floor(
        std::abs(std::sin(static_cast<double>(i + 1))) * 4294967296.0);
    EXPECT_EQ(Md5::kK[i], static_cast<std::uint32_t>(k)) << "i=" << i;
  }
}

TEST(Md5, ResetAllowsReuse) {
  Md5 m;
  m.update(bytes("first"));
  std::array<std::uint8_t, Md5::kDigestBytes> d1{};
  m.finish(d1);
  m.reset();
  m.update(bytes("abc"));
  std::array<std::uint8_t, Md5::kDigestBytes> d2{};
  m.finish(d2);
  EXPECT_EQ(to_hex(d2), "900150983cd24fb0d6963f7d28e17f72");
}

}  // namespace
}  // namespace dhl::crypto
