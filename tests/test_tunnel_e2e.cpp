// End-to-end IPsec tunnel: an encrypt-side DHL gateway and a decrypt-side
// DHL gateway back to back (the paper's Fig 5a workflow in both directions),
// both offloading to ipsec-crypto modules in opposite directions.  Verifies
// that what comes out of the tunnel is byte-identical to what went in.

#include <gtest/gtest.h>

#include <map>

#include "dhl/accel/ipsec_crypto.hpp"
#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/testbed.hpp"

namespace dhl::nf {
namespace {

TEST(TunnelE2E, EncryptThenDecryptRestoresPayloads) {
  Testbed tb;
  auto* port = tb.add_port("p0", Bandwidth::gbps(10));
  auto& rt = tb.init_runtime();
  const auto sa = test_security_association();

  // Capture originals keyed by generator sequence number.
  std::map<std::uint64_t, std::vector<std::uint8_t>> originals;
  std::uint64_t restored = 0, mismatches = 0;

  auto enc = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});
  auto dec = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});

  // The gateway encrypts on CPU (standing in for the remote tunnel
  // endpoint) and offloads the *decrypt+verify* to the FPGA -- the module
  // direction the reproduction benches never exercise -- then checks the
  // recovered inner frame against the original bytes.
  DhlNfConfig cfg;
  cfg.name = "ipsec-dec";
  cfg.timing = tb.timing();
  cfg.hf_name = "ipsec-crypto";
  cfg.acc_config = accel::ipsec_module_config(true, sa);  // decrypt direction
  DhlOffloadNf gw{
      tb.sim(),
      cfg,
      {port},
      rt,
      // prep: encrypt on CPU (the "remote" gateway), remember the original,
      // then ship the encapsulated frame to the FPGA for decrypt+verify.
      [&, enc](netio::Mbuf& m) {
        originals.emplace(m.seq(), std::vector<std::uint8_t>(
                                       m.payload().begin(), m.payload().end()));
        return enc->cpu_encrypt(m);
      },
      ipsec_cpu_cost(tb.timing()),
      // post: the module verified + decrypted; recover the inner frame.
      [&, dec](netio::Mbuf& m) {
        if (m.accel_result() != accel::IpsecCryptoModule::kOk) {
          ++mismatches;
          return Verdict::kDrop;
        }
        const auto inner = accel::esp_extract_inner(m.payload());
        const auto it = originals.find(m.seq());
        if (it == originals.end()) {
          ++mismatches;
          return Verdict::kDrop;
        }
        ++restored;
        if (inner != it->second) ++mismatches;
        originals.erase(it);
        return Verdict::kForward;
      },
      ipsec_dhl_post_cost(tb.timing())};

  tb.run_for(milliseconds(30));
  ASSERT_TRUE(gw.ready());
  rt.start();
  gw.start();

  netio::TrafficConfig traffic;
  traffic.frame_len = 512;
  port->start_traffic(traffic, 0.2);
  tb.measure(milliseconds(1), milliseconds(3));
  port->stop_traffic();
  tb.run_for(milliseconds(2));

  EXPECT_GT(restored, 1000u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(
      rt.telemetry().metrics.snapshot().sum("dhl.runtime.error_records"), 0);
  const auto audit = tb.quiesce_ledger();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(TunnelE2E, WrongKeyDecryptDropsEverything) {
  Testbed tb;
  auto* port = tb.add_port("p0", Bandwidth::gbps(10));
  auto& rt = tb.init_runtime();
  const auto sa = test_security_association();
  auto wrong_sa = sa;
  wrong_sa.auth_key[0] ^= 0xff;  // decryptor has a different auth key

  auto enc = std::make_shared<IpsecProcessor>(sa, IpsecPolicy{});
  std::uint64_t auth_failures = 0;

  DhlNfConfig cfg;
  cfg.name = "ipsec-dec-bad";
  cfg.timing = tb.timing();
  cfg.hf_name = "ipsec-crypto";
  cfg.acc_config = accel::ipsec_module_config(true, wrong_sa);
  DhlOffloadNf gw{
      tb.sim(),
      cfg,
      {port},
      rt,
      [enc](netio::Mbuf& m) { return enc->cpu_encrypt(m); },
      ipsec_cpu_cost(tb.timing()),
      [&](netio::Mbuf& m) {
        if (m.accel_result() == accel::IpsecCryptoModule::kAuthFail) {
          ++auth_failures;
          return Verdict::kDrop;
        }
        return Verdict::kForward;
      },
      ipsec_dhl_post_cost(tb.timing())};

  tb.run_for(milliseconds(30));
  rt.start();
  gw.start();
  netio::TrafficConfig traffic;
  traffic.frame_len = 256;
  port->start_traffic(traffic, 0.1);
  tb.measure(milliseconds(1), milliseconds(2));
  port->stop_traffic();
  tb.run_for(milliseconds(1));

  // Every frame fails authentication under the wrong key.
  EXPECT_GT(auth_failures, 500u);
  EXPECT_EQ(gw.stats().completed, 0u);
  const auto audit = tb.quiesce_ledger();
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

}  // namespace
}  // namespace dhl::nf
