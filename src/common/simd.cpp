#include "dhl/common/simd.hpp"

#include <cstdio>
#include <cstdlib>

namespace dhl::common::simd {

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse42:
      return "sse42";
    case Isa::kAesni:
      return "aesni";
    case Isa::kAvx2:
      return "avx2";
  }
  return "?";
}

bool parse_isa(std::string_view text, Isa& out) {
  if (text == "scalar") {
    out = Isa::kScalar;
  } else if (text == "sse42") {
    out = Isa::kSse42;
  } else if (text == "aesni") {
    out = Isa::kAesni;
  } else if (text == "avx2") {
    out = Isa::kAvx2;
  } else {
    return false;
  }
  return true;
}

namespace detail {

int init_cap_from_env() {
  Isa cap = kMaxIsa;
  if (const char* env = std::getenv("DHL_SIMD"); env != nullptr) {
    if (!parse_isa(env, cap)) {
      std::fprintf(stderr,
                   "dhl: ignoring DHL_SIMD=%s "
                   "(want scalar|sse42|aesni|avx2)\n",
                   env);
      cap = kMaxIsa;
    }
  }
  // Benign race: every thread parses the same environment to the same value.
  cap_cell().store(static_cast<int>(cap), std::memory_order_relaxed);
  return static_cast<int>(cap);
}

}  // namespace detail

std::vector<KernelInfo> kernel_report() {
  // The kernel list is declarative: `tier` (and `probe`) here must match
  // the guard inside each kernel's dispatch site, so the gauge reflects what
  // the hot path actually executes.  PCLMULQDQ and SHA-NI are not tiers, so
  // a kernel that needs one also requires its host probe.
  static constexpr struct {
    const char* name;
    Isa tier;
    bool (*probe)();
  } kKernels[] = {
      {"crc32c", Isa::kSse42, host_has_pclmul},  // common/crc32.hpp
      {"aes256_ctr", Isa::kAesni, nullptr},      // crypto/aes.cpp
      {"ac_multilane", Isa::kSse42, nullptr},    // match/aho_corasick.cpp
      {"batch_copy", Isa::kAvx2, nullptr},       // common/simd.hpp copy_bytes
      {"sha1", Isa::kSse42, host_has_sha},       // crypto/sha1.cpp
      {"md5", Isa::kAvx2, nullptr},              // crypto/md5.cpp digest_many
  };
  std::vector<KernelInfo> out;
  out.reserve(std::size(kKernels));
  for (const auto& k : kKernels) {
    const bool on = enabled(k.tier) && (k.probe == nullptr || k.probe());
    out.push_back({k.name, k.tier, on ? k.tier : Isa::kScalar});
  }
  return out;
}

}  // namespace dhl::common::simd
