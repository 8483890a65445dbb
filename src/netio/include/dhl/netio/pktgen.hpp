#pragma once

// Traffic synthesis, standing in for DPDK-Pktgen (paper V-A: two servers run
// DPDK-Pktgen to generate and sink traffic).
//
// A FrameFactory builds real Ethernet/IPv4/UDP frames: multiple flows
// (varying addresses/ports), configurable frame sizes (fixed or a weighted
// mix), and payloads that are either pseudo-random bytes or text with attack
// strings embedded at a configurable probability (for NIDS experiments --
// detection results must have ground truth).

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dhl/common/rng.hpp"
#include "dhl/common/units.hpp"
#include "dhl/netio/headers.hpp"
#include "dhl/netio/mbuf.hpp"

namespace dhl::netio {

enum class PayloadKind : std::uint8_t {
  kRandom,       // pseudo-random bytes
  kZero,         // all zeros
  kText,         // printable filler text
  kTextAttacks,  // text with attack strings embedded at attack_probability
};

struct TrafficConfig {
  /// Fixed frame length in bytes (entire L2 frame stored in the mbuf).
  /// Ignored if `size_mix` is non-empty.
  std::uint32_t frame_len = 64;
  /// Optional weighted size mix, e.g. simple IMIX {{64,7},{570,4},{1500,1}}.
  std::vector<std::pair<std::uint32_t, double>> size_mix;

  std::uint32_t num_flows = 64;
  std::uint32_t src_ip_base = ipv4_addr(10, 0, 0, 1);
  std::uint32_t dst_ip_base = ipv4_addr(192, 168, 0, 1);
  std::uint16_t src_port_base = 10000;
  std::uint16_t dst_port_base = 5000;

  PayloadKind payload = PayloadKind::kRandom;
  /// Probability that a frame carries one embedded attack string
  /// (PayloadKind::kTextAttacks only).
  double attack_probability = 0.0;
  std::vector<std::string> attack_strings;

  std::uint64_t seed = 1;

  // --- pluggable generator hooks (src/workload) ---------------------------
  //
  // When set, these override the built-in pickers so composed workload
  // models (heavy-tailed size mixes, churning flow tables, bursty arrival
  // processes) plug in without netio knowing about them.  Each hook must be
  // a deterministic function of its own seeded state -- the replay
  // guarantee of the scenario harness depends on it.

  /// Overrides frame_len / size_mix.  Must return >= kMinFrameLen.
  std::function<std::uint32_t()> size_model;
  /// Overrides the uniform flow pick.  The returned index feeds the same
  /// address/port derivation as the built-in picker (it need not be bounded
  /// by num_flows).
  std::function<std::uint32_t()> flow_model;
  /// Overrides the NicPort's CBR arrival shaping (offered_fraction): given
  /// the arrival time of the frame just built and its wire time at line
  /// rate, return the full gap to the next arrival.  ON/OFF silences and
  /// ramp shapes are encoded in the returned gap.
  std::function<Picos(Picos now, Picos line_gap)> gap_model;

  /// Chain a CRC32C digest over every built frame's bytes (see
  /// FrameFactory::stream_digest).  Off by default: it touches every
  /// payload byte a second time, which the fixed-workload benches don't
  /// want to pay.
  bool stream_digest = false;
};

/// Minimum frame a factory will build: headers + enough payload to tag.
inline constexpr std::uint32_t kMinFrameLen = 64;

class FrameFactory {
 public:
  explicit FrameFactory(TrafficConfig config);

  /// Populate `m` with the next synthesized frame.  Returns the frame length.
  /// Sets m.seq() from an internal counter.
  std::uint32_t build(Mbuf& m);

  /// Frame length the next build() call would produce (lets the NIC model
  /// compute the wire gap before materializing the frame).
  std::uint32_t peek_frame_len();

  std::uint64_t frames_built() const { return seq_; }
  /// Ground truth: frames built so far that contain an attack string.
  std::uint64_t attack_frames() const { return attack_frames_; }
  /// CRC32C chained over the raw bytes of every frame built so far
  /// (TrafficConfig::stream_digest only; 0 otherwise).  Two factories with
  /// identical configs and seeds produce identical digests -- the
  /// bit-exact-replay witness the determinism tests assert.
  std::uint32_t stream_digest() const { return digest_; }

  const TrafficConfig& config() const { return config_; }

 private:
  std::uint32_t pick_frame_len();
  void fill_payload(std::span<std::uint8_t> payload, bool* attack_out);

  TrafficConfig config_;
  Xoshiro256 rng_;
  std::uint64_t seq_ = 0;
  std::uint64_t attack_frames_ = 0;
  std::uint32_t digest_ = 0;
  std::uint32_t pending_len_ = 0;  // set by peek, consumed by build
  bool has_pending_len_ = false;
  double total_weight_ = 0;
};

}  // namespace dhl::netio
