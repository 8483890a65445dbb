#pragma once

// Runtime-ISA dispatch for the CPU data plane's vector kernels.
//
// The crc32.hpp pattern, generalized (DESIGN.md section 3.5): every kernel
// keeps one scalar reference implementation, per-ISA variants compiled with
// __attribute__((target(...))), and a `__builtin_cpu_supports` probe cached
// at first use.  This header adds the two pieces the one-off CRC dispatch
// lacked:
//
//   * a process-wide *cap* on the ISA tier a kernel may select, settable via
//     the DHL_SIMD environment variable (scalar|sse42|aesni|avx2) or the
//     `[runtime] simd=` config key, and programmatically via set_cap() so the
//     bit-parity tests can force every tier in one process;
//   * a kernel registry: each dispatched kernel is declared here with the
//     tier it wants, and kernel_report() tells callers (the runtime exports
//     it as the dhl.simd.kernel_isa telemetry gauge) which ISA each kernel
//     actually selected on this host under the current cap.
//
// Hot paths call enabled(tier), which costs one cached bitmask test plus one
// relaxed atomic load -- cheap enough to sit in front of a per-buffer kernel,
// and re-evaluated per call so a cap change (tests, config reload) takes
// effect immediately instead of being baked in by a function-local static.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define DHL_SIMD_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dhl::common::simd {

/// ISA tiers, ordered: a cap of kAesni permits scalar, SSE4.2, and AES-NI
/// kernels but forces AVX2 kernels down to their reference path.
enum class Isa : std::uint8_t {
  kScalar = 0,
  kSse42 = 1,
  kAesni = 2,
  kAvx2 = 3,
};

inline constexpr Isa kMaxIsa = Isa::kAvx2;

const char* to_string(Isa isa);

/// Parse "scalar" / "sse42" / "aesni" / "avx2" (the DHL_SIMD values).
/// Returns false (and leaves `out` alone) on anything else.
bool parse_isa(std::string_view text, Isa& out);

namespace detail {

/// Bitmask of host-supported tiers (bit = static_cast<unsigned>(Isa)).
inline std::uint32_t host_isa_mask() {
#ifdef DHL_SIMD_X86
  static const std::uint32_t mask = [] {
    std::uint32_t m = 1u << static_cast<unsigned>(Isa::kScalar);
    if (__builtin_cpu_supports("sse4.2")) {
      m |= 1u << static_cast<unsigned>(Isa::kSse42);
    }
    if (__builtin_cpu_supports("aes") && __builtin_cpu_supports("sse2")) {
      m |= 1u << static_cast<unsigned>(Isa::kAesni);
    }
    if (__builtin_cpu_supports("avx2")) {
      m |= 1u << static_cast<unsigned>(Isa::kAvx2);
    }
    return m;
  }();
  return mask;
#else
  return 1u << static_cast<unsigned>(Isa::kScalar);
#endif
}

/// Current cap as an int, or -1 when the DHL_SIMD env var has not been
/// consulted yet.  A relaxed load is enough: the value is idempotent once
/// initialized and test overrides happen between workloads.
inline std::atomic<int>& cap_cell() {
  static std::atomic<int> cell{-1};
  return cell;
}

/// Slow path: parse DHL_SIMD (defined in simd.cpp), store, return the cap.
int init_cap_from_env();

}  // namespace detail

/// True when the host CPU can run `tier` at all (ignores the cap).
inline bool host_supports(Isa tier) {
  return (detail::host_isa_mask() >> static_cast<unsigned>(tier)) & 1u;
}

/// True when the host CPU has the SHA extensions (SHA-NI), cached at first
/// use.  SHA-NI is off the linear tier ladder -- Haswell to Skylake have AVX2
/// without it, Goldmont has it without AVX2 -- so the "sha1" kernel runs it
/// iff enabled(Isa::kSse42) && host_has_sha(); every SHA-NI CPU has SSE4.2.
/// CPUID leaf 7, EBX bit 29, because older clangs lack
/// __builtin_cpu_supports("sha").
inline bool host_has_sha() {
#ifdef DHL_SIMD_X86
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ebx & bit_SHA) != 0;
  }();
  return has;
#else
  return false;
#endif
}

/// True when the host has PCLMULQDQ (cached by __builtin_cpu_supports).
/// SSE4.2 does not imply it -- Nehalem has SSE4.2 without it -- so the
/// "crc32c" kernel folds with it iff enabled(Isa::kSse42) &&
/// host_has_pclmul().
inline bool host_has_pclmul() {
#ifdef DHL_SIMD_X86
  return __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

/// True when the host has VPCLMULQDQ (carry-less multiply on 256-bit
/// vectors), cached at first use.  Like SHA-NI it is off the tier ladder
/// (Ice Lake and Zen 3 have it, Haswell to Cascade Lake do not), so
/// "crc32c" widens its folds to 256 bits iff enabled(Isa::kAvx2) &&
/// host_has_vpclmulqdq().  CPUID leaf 7, ECX bit 10.
inline bool host_has_vpclmulqdq() {
#ifdef DHL_SIMD_X86
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & bit_VPCLMULQDQ) != 0;
  }();
  return has;
#else
  return false;
#endif
}

/// The active cap (DHL_SIMD, config, or set_cap; kMaxIsa when unset).
inline Isa cap() {
  const int c = detail::cap_cell().load(std::memory_order_relaxed);
  if (c >= 0) return static_cast<Isa>(c);
  return static_cast<Isa>(detail::init_cap_from_env());
}

/// Force the cap (tests / `[runtime] simd=` config key).  Wins over the
/// environment from then on.
inline void set_cap(Isa isa) {
  detail::cap_cell().store(static_cast<int>(isa), std::memory_order_relaxed);
}

/// The dispatch predicate: may a kernel use its `tier` variant right now?
inline bool enabled(Isa tier) {
  return host_supports(tier) && tier <= cap();
}

// --- kernel registry ---------------------------------------------------------

/// One dispatched kernel: the tier its vector variant needs and the tier it
/// selects on this host under the current cap (its `tier` when enabled(),
/// kScalar otherwise).
struct KernelInfo {
  const char* name;
  Isa tier;
  Isa selected;
};

/// Every registered kernel with its currently-selected ISA.  Computed on
/// demand so it tracks cap changes; the runtime snapshots it into the
/// dhl.simd.kernel_isa gauge at construction.
std::vector<KernelInfo> kernel_report();

// --- copy kernel -------------------------------------------------------------
//
// memcpy for the batch path's record payloads.  A flat unaligned-vector
// loop sidesteps the libc dispatcher's call + size-classification overhead
// for the small records that dominate header/payload staging; past
// kCopyVectorMax bytes glibc's ERMS (rep movsb) path wins on modern x86 --
// measured ~3x at 1500 B -- so larger copies defer to std::memcpy.  Under
// DHL_SIMD=scalar the reference path is plain std::memcpy for every size,
// so parity is trivial.

namespace detail {

#ifdef DHL_SIMD_X86
__attribute__((target("avx2"))) inline void copy_bytes_avx2(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  while (n >= 64) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 32), b);
    src += 64;
    dst += 64;
    n -= 64;
  }
  if (n >= 32) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)));
    src += 32;
    dst += 32;
    n -= 32;
  }
  if (n >= 16) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
    src += 16;
    dst += 16;
    n -= 16;
  }
  if (n != 0) std::memcpy(dst, src, n);
}
#endif  // DHL_SIMD_X86

}  // namespace detail

/// Largest copy routed to the flat vector loop.  Measured crossover on the
/// reference host: the loop is at parity or slightly ahead of glibc below
/// ~512 B, then loses to the ERMS path by 2-3x at MTU-and-up sizes.
inline constexpr std::size_t kCopyVectorMax = 512;

/// Copy `n` bytes; byte-identical to std::memcpy (regions must not overlap).
inline void copy_bytes(void* dst, const void* src, std::size_t n) {
#ifdef DHL_SIMD_X86
  if (n < kCopyVectorMax && enabled(Isa::kAvx2)) {
    detail::copy_bytes_avx2(static_cast<std::uint8_t*>(dst),
                            static_cast<const std::uint8_t*>(src), n);
    return;
  }
#endif
  std::memcpy(dst, src, n);
}

}  // namespace dhl::common::simd
