#include "dhl/netio/pktgen.hpp"

#include <array>
#include <cstring>

#include "dhl/common/check.hpp"
#include "dhl/common/crc32.hpp"

namespace dhl::netio {

namespace {
constexpr char kFillerText[] =
    "the quick brown fox jumps over the lazy dog while packets flow through "
    "the network function chain at line rate without loss ";
constexpr std::size_t kTextLen = sizeof(kFillerText) - 1;

/// The filler text repeated past 16 KB + one period, so a text payload of up
/// to 16 KB at any starting phase is one copy out of this buffer.
constexpr std::size_t kTiledPayloadMax = 16 * 1024;
constexpr auto kTiledFiller = [] {
  std::array<char, kTiledPayloadMax + kTextLen> t{};
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = kFillerText[i % kTextLen];
  return t;
}();
}  // namespace

FrameFactory::FrameFactory(TrafficConfig config)
    : config_{std::move(config)}, rng_{config_.seed} {
  DHL_CHECK(config_.num_flows > 0);
  if (config_.size_mix.empty()) {
    DHL_CHECK_MSG(config_.frame_len >= kMinFrameLen, "frame too small");
  } else {
    for (const auto& [len, weight] : config_.size_mix) {
      DHL_CHECK(len >= kMinFrameLen);
      DHL_CHECK(weight > 0);
      total_weight_ += weight;
    }
  }
  if (config_.payload == PayloadKind::kTextAttacks) {
    DHL_CHECK_MSG(!config_.attack_strings.empty(),
                  "kTextAttacks requires attack strings");
  }
}

std::uint32_t FrameFactory::pick_frame_len() {
  if (config_.size_model) {
    const std::uint32_t len = config_.size_model();
    DHL_CHECK_MSG(len >= kMinFrameLen, "size_model returned a runt frame");
    return len;
  }
  if (config_.size_mix.empty()) return config_.frame_len;
  double r = rng_.uniform() * total_weight_;
  for (const auto& [len, weight] : config_.size_mix) {
    if (r < weight) return len;
    r -= weight;
  }
  return config_.size_mix.back().first;
}

std::uint32_t FrameFactory::peek_frame_len() {
  if (!has_pending_len_) {
    pending_len_ = pick_frame_len();
    has_pending_len_ = true;
  }
  return pending_len_;
}

void FrameFactory::fill_payload(std::span<std::uint8_t> payload,
                                bool* attack_out) {
  *attack_out = false;
  switch (config_.payload) {
    case PayloadKind::kRandom:
      rng_.fill(payload.data(), payload.size());
      return;
    case PayloadKind::kZero:
      std::memset(payload.data(), 0, payload.size());
      return;
    case PayloadKind::kText:
    case PayloadKind::kTextAttacks: {
      // Start at a random phase so payloads differ across frames.
      const std::size_t phase = rng_.bounded(kTextLen);
      DHL_CHECK_MSG(payload.size() <= kTiledPayloadMax,
                    "text payload over " << kTiledPayloadMax << " B");
      std::memcpy(payload.data(), kTiledFiller.data() + phase, payload.size());
      if (config_.payload == PayloadKind::kTextAttacks &&
          rng_.uniform() < config_.attack_probability) {
        const std::string& attack = config_.attack_strings[rng_.bounded(
            config_.attack_strings.size())];
        if (attack.size() <= payload.size()) {
          const std::size_t off =
              rng_.bounded(payload.size() - attack.size() + 1);
          std::memcpy(payload.data() + off, attack.data(), attack.size());
          *attack_out = true;
        }
      }
      return;
    }
  }
}

std::uint32_t FrameFactory::build(Mbuf& m) {
  const std::uint32_t frame_len = peek_frame_len();
  has_pending_len_ = false;

  m.reset();
  std::uint8_t* p = m.append(frame_len);
  const std::uint32_t flow =
      config_.flow_model
          ? config_.flow_model()
          : static_cast<std::uint32_t>(rng_.bounded(config_.num_flows));

  EthernetHeader eth;
  eth.src = {0x02, 0x00, 0x00, 0x00, 0x00, static_cast<std::uint8_t>(flow)};
  eth.dst = {0x02, 0x00, 0x00, 0x00, 0x01, 0x01};
  eth.write({p, frame_len});

  Ipv4Header ip;
  ip.src = config_.src_ip_base + flow;
  ip.dst = config_.dst_ip_base + flow;
  ip.protocol = kIpProtoUdp;
  ip.total_length = static_cast<std::uint16_t>(frame_len - kEthernetHeaderLen);
  ip.identification = static_cast<std::uint16_t>(seq_);
  ip.write({p + kEthernetHeaderLen, frame_len - kEthernetHeaderLen});

  UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(config_.src_port_base + flow);
  udp.dst_port = static_cast<std::uint16_t>(config_.dst_port_base + flow % 16);
  const std::uint32_t l4_off = kEthernetHeaderLen + kIpv4HeaderLen;
  udp.length = static_cast<std::uint16_t>(frame_len - l4_off);
  udp.write({p + l4_off, frame_len - l4_off});

  const std::uint32_t payload_off = l4_off + static_cast<std::uint32_t>(kUdpHeaderLen);
  bool attack = false;
  fill_payload({p + payload_off, frame_len - payload_off}, &attack);
  if (attack) ++attack_frames_;

  if (config_.stream_digest) {
    digest_ = common::crc32c({p, frame_len}, digest_);
  }

  m.set_seq(seq_++);
  return frame_len;
}

}  // namespace dhl::netio
