#pragma once

// IPsec gateway NF (paper V-B1).
//
// Workflow (paper Fig 5a): ingress -> IP header classification -> IPsec SA
// matching -> ESP tunnel encapsulation (encrypt + authenticate) -> output.
// Encryption is AES-256-CTR, authentication HMAC-SHA1 -- identical bytes on
// the CPU-only and DHL paths.
//
// IpsecProcessor supplies the per-packet functions both execution models
// plug into:
//   * cpu_encrypt()      -- full encap + seal (CPU-only worker)
//   * dhl_prep()         -- SA match + encap, crypto left to the FPGA
//   * dhl_post()         -- verify the module result word
//   * cpu_decrypt()      -- decrypt-side gateway (example/e2e tests)

#include <cstdint>
#include <memory>

#include "dhl/accel/ipsec_common.hpp"
#include "dhl/nf/chain.hpp"

namespace dhl::nf {

/// Traffic selector: packets whose destination matches `prefix/depth` are
/// tunneled; everything else bypasses (forwarded in the clear).
struct IpsecPolicy {
  std::uint32_t dst_prefix = 0;
  std::uint8_t dst_depth = 0;  // 0 = match everything
  bool matches(std::uint32_t addr) const {
    if (dst_depth == 0) return true;
    const std::uint32_t mask =
        dst_depth == 32 ? 0xffffffffu : ~((1u << (32 - dst_depth)) - 1);
    return (addr & mask) == (dst_prefix & mask);
  }
};

struct IpsecStats {
  std::uint64_t encapsulated = 0;
  std::uint64_t bypassed = 0;    // no SA match
  std::uint64_t malformed = 0;   // unparsable packet
  std::uint64_t auth_failures = 0;
  std::uint64_t decapsulated = 0;
};

class IpsecProcessor {
 public:
  IpsecProcessor(accel::SecurityAssociation sa, IpsecPolicy policy);

  /// CPU-only worker body: classify, SA-match, encapsulate, encrypt, ICV.
  Verdict cpu_encrypt(netio::Mbuf& m);

  /// DHL ingress body: classify, SA-match, encapsulate; crypto is the
  /// FPGA's job.  Packets that bypass the SA are *not* offloaded -- they
  /// keep Verdict::kForward but the caller checks needs_offload().
  Verdict dhl_prep(netio::Mbuf& m);

  /// DHL egress body: check the ipsec-crypto result word.
  Verdict dhl_post(netio::Mbuf& m);

  /// Decrypt-side gateway body: verify + decrypt + decapsulate.
  Verdict cpu_decrypt(netio::Mbuf& m);

  const accel::SecurityAssociation& sa() const { return sa_; }
  const IpsecStats& stats() const { return stats_; }

 private:
  accel::SecurityAssociation sa_;
  IpsecPolicy policy_;
  crypto::Aes256 cipher_;
  crypto::HmacSha1 hmac_;
  std::uint64_t seq_ = 1;
  IpsecStats stats_;
};

/// A deterministic test SA (fixed keys) shared by examples/tests/benches.
accel::SecurityAssociation test_security_association();

/// Worker cycle-cost models (see sim::NfCpuCosts).
CostFn ipsec_cpu_cost(const sim::TimingParams& timing);
CostFn ipsec_dhl_prep_cost(const sim::TimingParams& timing);
CostFn ipsec_dhl_post_cost(const sim::TimingParams& timing);

}  // namespace dhl::nf
