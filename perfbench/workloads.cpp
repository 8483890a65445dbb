#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "dhl/accel/extra_modules.hpp"
#include "dhl/accel/ipsec_common.hpp"
#include "dhl/accel/pattern_matching.hpp"
#include "dhl/common/rng.hpp"
#include "dhl/crypto/md5.hpp"
#include "dhl/match/ruleset.hpp"
#include "dhl/nf/chain.hpp"
#include "dhl/nf/dhl_nf.hpp"
#include "dhl/nf/ipsec_gateway.hpp"
#include "dhl/nf/nids.hpp"
#include "tracer.hpp"

namespace perfbench {

using dhl::Bandwidth;
using dhl::Picos;
using dhl::milliseconds;
using dhl::netio::Mbuf;
using dhl::nf::Verdict;

namespace {

enum class Kind { kIpsec, kNids, kChain };

Kind kind_of(const std::string& name) {
  if (name == "ipsec-64") return Kind::kIpsec;
  if (name == "nids-1500") return Kind::kNids;
  if (name == "shared-chain-imix") return Kind::kChain;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

constexpr Bandwidth kLink = Bandwidth::gbps(40);

// Output sampling: every kSampleStride-th frame (by generator sequence
// number) is copied at the NF's post step into a preallocated arena, so the
// sampling itself never allocates.
constexpr std::uint64_t kSampleStride = 61;
constexpr std::size_t kMaxSamples = 256;
constexpr std::size_t kMaxSampleBytes = 2048;

struct Sample {
  std::uint16_t port = 0;
  std::uint64_t seq = 0;
  std::uint32_t len = 0;
  std::uint64_t result = 0;
};

class Sampler {
 public:
  Sampler() : arena_(kMaxSamples * kMaxSampleBytes) {
    samples_.reserve(kMaxSamples);
  }

  void offer(const Mbuf& m) {
    if (m.seq() % kSampleStride != 0 || samples_.size() == kMaxSamples) {
      return;
    }
    Span bench{kNoLayer};  // benchmark work, not the NF's
    Sample s;
    s.port = m.port();
    s.seq = m.seq();
    s.len = static_cast<std::uint32_t>(
        std::min<std::size_t>(m.data_len(), kMaxSampleBytes));
    s.result = m.accel_result();
    std::memcpy(arena_.data() + samples_.size() * kMaxSampleBytes, m.data(),
                s.len);
    samples_.push_back(s);
  }

  std::size_t size() const { return samples_.size(); }
  const Sample& at(std::size_t i) const { return samples_[i]; }
  std::span<const std::uint8_t> bytes(std::size_t i) const {
    return {arena_.data() + i * kMaxSampleBytes, samples_[i].len};
  }

 private:
  std::vector<std::uint8_t> arena_;
  std::vector<Sample> samples_;
};

/// Per-port FIFO of RX stamps of packets the NF forwarded but has not yet
/// transmitted.  Fixed capacity, so the post step never allocates; it holds
/// a whole warm-up's stamps (at most ~30k packets per port) until
/// Rig::begin_window() discards them.
class TxStampQueue {
 public:
  static constexpr std::size_t kCapacity = 1 << 17;

  TxStampQueue() : ring_(kCapacity) {}
  void push(Picos stamp) {
    if (tail_ - head_ == kCapacity) {
      overflow_ = true;
      return;
    }
    ring_[tail_++ % kCapacity] = stamp;
  }
  bool pop(Picos& stamp) {
    if (head_ == tail_) return false;
    stamp = ring_[head_++ % kCapacity];
    return true;
  }
  bool overflow() const { return overflow_; }

 private:
  std::vector<Picos> ring_;
  std::uint64_t head_ = 0, tail_ = 0;
  bool overflow_ = false;
};

/// Snort-sample contents used as attack strings (ip-any rules plus two
/// payload-only contents), so every embedded attack yields a pattern hit.
std::vector<std::string> attack_strings() {
  return {"/bin/sh", std::string("\x90\x90\x90\x90\x90\x90\x90\x90", 8),
          std::string("\x31\xc0\x31\xdb\x31\xc9", 6), "cmd.exe", "xc3511"};
}

}  // namespace

struct Rig::Impl {
  RigOptions opt;
  Kind kind;
  dhl::nf::Testbed tb;
  std::vector<dhl::netio::NicPort*> ports;
  std::vector<dhl::netio::TrafficConfig> traffic;  // per port
  std::shared_ptr<const dhl::match::AhoCorasick> automaton;
  std::unique_ptr<dhl::runtime::DhlRuntime> rt;
  std::shared_ptr<dhl::nf::IpsecProcessor> ipsec;
  std::shared_ptr<dhl::nf::NidsProcessor> nids;
  std::unique_ptr<dhl::nf::DhlOffloadNf> offload_nf;
  std::vector<std::unique_ptr<dhl::nf::ChainNf>> chains;
  Sampler sampler;
  std::vector<TxStampQueue> stamps;        // per port
  std::vector<std::uint64_t> tx_seen;      // per port, this window
  std::vector<Picos> latencies;
  bool stamp_mismatch = false;
  std::size_t checked = 0;
  int sockets = 0;

  explicit Impl(const RigOptions& o) : opt{o}, kind{kind_of(o.workload)} {}

  double fixed_fraction() const {
    switch (kind) {
      case Kind::kIpsec: return 0.42;
      case Kind::kNids: return 0.70;
      case Kind::kChain: return 0.40;
    }
    return 0;
  }

  std::uint32_t fixed_frame_len() const {
    switch (kind) {
      case Kind::kIpsec: return 64;
      case Kind::kNids: return 1500;
      case Kind::kChain: return 0;  // IMIX
    }
    return 0;
  }

  dhl::netio::TrafficConfig make_traffic(std::size_t port) const {
    dhl::netio::TrafficConfig t;
    t.seed = opt.seed * 1'000'003ull + port;
    switch (kind) {
      case Kind::kIpsec:
        t.frame_len = 64;
        break;
      case Kind::kNids:
        t.frame_len = 1500;
        t.payload = dhl::netio::PayloadKind::kTextAttacks;
        t.attack_probability = 0.05;
        t.attack_strings = attack_strings();
        break;
      case Kind::kChain:
        t.size_mix = {{64, 7}, {570, 4}, {1500, 1}};
        break;
    }
    if (!opt.capacity) {
      // Open loop: each gap is the frame's wire time plus an exponential
      // idle time, so arrivals are Poisson-like at the stated mean load
      // and never faster than the link.
      const double f = fixed_fraction();
      t.gap_model = [rng = dhl::Xoshiro256{opt.seed ^ (0x5EEDull << 20) ^ port},
                     f](Picos, Picos line_gap) mutable {
        const double idle = -std::log1p(-rng.uniform()) *
                            static_cast<double>(line_gap) * (1.0 / f - 1.0);
        return line_gap + static_cast<Picos>(idle);
      };
    }
    return t;
  }

  void build_runtime() {
    dhl::runtime::RuntimeConfig rc;
    rc.telemetry = tb.telemetry_ptr();
    sockets = rc.num_sockets;
    dhl::fpga::BitstreamDatabase db =
        dhl::accel::standard_module_database(automaton);
    if (opt.traced) db = traced_database(db);
    rt = std::make_unique<dhl::runtime::DhlRuntime>(
        tb.sim(), rc, std::move(db),
        std::vector<dhl::fpga::FpgaDevice*>{&tb.fpga()});
  }

  void build() {
    const std::size_t nports = kind == Kind::kChain ? 2 : 1;
    for (std::size_t p = 0; p < nports; ++p) {
      ports.push_back(tb.add_port("p" + std::to_string(p), kLink));
      traffic.push_back(make_traffic(p));
    }
    stamps.resize(nports);
    tx_seen.assign(nports, 0);
    latencies.reserve(1 << 18);  // a whole window's transmissions
    const auto& timing = tb.timing();
    switch (kind) {
      case Kind::kIpsec: {
        build_runtime();
        const auto sa = dhl::nf::test_security_association();
        ipsec = std::make_shared<dhl::nf::IpsecProcessor>(
            sa, dhl::nf::IpsecPolicy{});
        dhl::nf::DhlNfConfig cfg;
        cfg.name = "ipsec-dhl";
        cfg.timing = timing;
        cfg.hf_name = "ipsec-crypto";
        cfg.acc_config = dhl::accel::ipsec_module_config(false, sa);
        auto* ip = ipsec.get();
        offload_nf = std::make_unique<dhl::nf::DhlOffloadNf>(
            tb.sim(), cfg, ports, *rt,
            [ip](Mbuf& m) {
              Span s{kPrep};
              return ip->dhl_prep(m);
            },
            dhl::nf::ipsec_dhl_prep_cost(timing),
            [ip, this](Mbuf& m) {
              return forwarded(m, [&] { return ip->dhl_post(m); });
            },
            dhl::nf::ipsec_dhl_post_cost(timing));
        break;
      }
      case Kind::kNids: {
        auto rules = std::make_shared<dhl::match::RuleSet>(
            dhl::match::RuleSet::builtin_snort_sample());
        automaton = dhl::nf::NidsProcessor::build_automaton(*rules);
        build_runtime();
        nids = std::make_shared<dhl::nf::NidsProcessor>(rules, automaton);
        dhl::nf::DhlNfConfig cfg;
        cfg.name = "nids-dhl";
        cfg.timing = timing;
        cfg.hf_name = "pattern-matching";
        auto* np = nids.get();
        offload_nf = std::make_unique<dhl::nf::DhlOffloadNf>(
            tb.sim(), cfg, ports, *rt,
            [np](Mbuf& m) {
              Span s{kPrep};
              return np->dhl_prep(m);
            },
            dhl::nf::nids_dhl_prep_cost(timing),
            [np, this](Mbuf& m) {
              return forwarded(m, [&] { return np->dhl_post(m); });
            },
            dhl::nf::nids_dhl_post_cost(timing));
        break;
      }
      case Kind::kChain: {
        build_runtime();
        // alpha is unlimited; bravo's outstanding-bytes cap leaves the
        // fixed-rate phase alone but refuses bursts once the shared
        // transfer layer saturates.
        const dhl::TenantId alpha =
            rt->register_tenant("alpha", dhl::TenantQuota{});
        const dhl::TenantId bravo = rt->register_tenant(
            "bravo",
            dhl::TenantQuota{.outstanding_bytes_cap = 256 * 1024});
        const double post_cycles = timing.nf.dhl_post;
        for (std::size_t p = 0; p < ports.size(); ++p) {
          std::vector<dhl::nf::ChainStage> stages;
          stages.push_back(dhl::nf::ChainStage::offload(
              "md5-auth", "md5-auth", {}, nullptr, nullptr));
          stages.push_back(dhl::nf::ChainStage::offload(
              "aes256-ctr", "aes256-ctr", dhl::accel::aes256_ctr_test_config(),
              [this](Mbuf& m) {
                return forwarded(m, [&] {
                  return m.accel_result() == dhl::accel::Aes256CtrModule::kOk
                             ? Verdict::kForward
                             : Verdict::kDrop;
                });
              },
              [post_cycles](const Mbuf&) { return post_cycles; }));
          dhl::nf::ChainConfig cfg;
          cfg.name = p == 0 ? "chain-alpha" : "chain-bravo";
          cfg.timing = timing;
          cfg.tenant = p == 0 ? alpha : bravo;
          chains.push_back(std::make_unique<dhl::nf::ChainNf>(
              tb.sim(), cfg, std::vector<dhl::netio::NicPort*>{ports[p]},
              rt.get(), std::move(stages)));
        }
        break;
      }
    }
    // Simulated PR load (and, for the chain, the fused bitstream).
    for (int i = 0; i < 40 && !ready(); ++i) tb.run_for(milliseconds(5));
    if (!ready()) throw std::runtime_error("hardware functions never loaded");
    rt->start();
    if (offload_nf) offload_nf->start();
    for (auto& c : chains) c->start();
  }

  /// The NF's post step (`post`, inside an nf.post span), then the
  /// benchmark's bookkeeping for packets it forwards.
  template <typename Post>
  Verdict forwarded(Mbuf& m, Post&& post) {
    Verdict v;
    {
      Span s{kPost};
      v = post();
    }
    if (v == Verdict::kForward) {
      stamps[m.port()].push(m.rx_timestamp());
      sampler.offer(m);
    }
    return v;
  }

  bool ready() const {
    if (offload_nf) return offload_nf->ready();
    return std::all_of(chains.begin(), chains.end(),
                       [](const auto& c) { return c->ready(); });
  }

  /// Rebuild port `p`'s first `count` frames in generator order, calling
  /// `fn(seq, frame)` for each.  Returns the generator's ground-truth count
  /// of frames carrying an attack string among them.
  template <typename Fn>
  std::uint64_t replay(std::size_t p, std::uint64_t count, Fn&& fn) const {
    dhl::netio::MbufPool pool{"replay", 1, 2048 + 128, 0};
    dhl::netio::FrameFactory ref{traffic[p]};
    Mbuf* m = pool.alloc();
    for (std::uint64_t seq = 0; seq < count; ++seq) {
      ref.build(*m);
      fn(seq, std::span<const std::uint8_t>{m->data(), m->data_len()});
    }
    m->release();
    return ref.attack_frames();
  }

  std::string check_sample(const Sample& s, std::span<const std::uint8_t> got,
                           std::span<const std::uint8_t> original) {
    const std::string where =
        " (port " + std::to_string(s.port) + ", seq " + std::to_string(s.seq) + ")";
    switch (kind) {
      case Kind::kIpsec: {
        const auto& sa = ipsec->sa();
        const dhl::crypto::Aes256 cipher{sa.key};
        const dhl::crypto::HmacSha1 hmac{sa.auth_key};
        std::vector<std::uint8_t> frame(got.begin(), got.end());
        if (!dhl::accel::esp_open(frame, cipher, hmac, sa.salt)) {
          return "ESP ICV mismatch" + where;
        }
        const std::vector<std::uint8_t> inner =
            dhl::accel::esp_extract_inner(frame);
        if (!std::equal(inner.begin(), inner.end(), original.begin(),
                        original.end())) {
          return "ESP inner packet differs from the offered frame" + where;
        }
        return {};
      }
      case Kind::kNids: {
        if (!std::equal(got.begin(), got.end(), original.begin(),
                        original.end())) {
          return "NIDS altered the frame" + where;
        }
        dhl::accel::PatternMatchingModule soft{automaton};
        std::vector<std::uint8_t> copy(original.begin(), original.end());
        if (soft.process(copy).result != s.result) {
          return "pattern result word differs from the software scan" + where;
        }
        return {};
      }
      case Kind::kChain: {
        const std::vector<std::uint8_t> cfg =
            dhl::accel::aes256_ctr_test_config();
        const dhl::crypto::Aes256 cipher{
            std::span<const std::uint8_t, 32>{cfg.data(), 32}};
        std::vector<std::uint8_t> expect(original.size());
        dhl::crypto::aes256_ctr(
            cipher, std::span<const std::uint8_t, 16>{cfg.data() + 32, 16},
            original, expect);
        if (!std::equal(expect.begin(), expect.end(), got.begin(), got.end())) {
          return "AES-256-CTR output differs from the software cipher" + where;
        }
        // The fused record carries only the last stage's result word, so
        // md5-auth parity is module against software on the same frame.
        const dhl::netio::PacketView view = dhl::netio::parse_packet(original);
        const std::size_t off = view.valid ? view.payload_offset : 0;
        const auto digest = dhl::crypto::Md5::digest(original.subspan(off));
        std::uint64_t soft = 0;
        for (int i = 0; i < 8; ++i) {
          soft |= static_cast<std::uint64_t>(digest[static_cast<std::size_t>(i)])
                  << (8 * i);
        }
        dhl::accel::Md5Module md5;
        std::vector<std::uint8_t> copy(original.begin(), original.end());
        if (md5.process(copy).result != soft) {
          return "md5-auth result differs from software MD5" + where;
        }
        return {};
      }
    }
    return {};
  }

  std::string verify() {
    std::string failure;
    for (std::size_t p = 0; p < ports.size() && failure.empty(); ++p) {
      std::vector<std::size_t> mine;
      for (std::size_t i = 0; i < sampler.size(); ++i) {
        if (sampler.at(i).port == ports[p]->port_id()) mine.push_back(i);
      }
      std::sort(mine.begin(), mine.end(), [&](std::size_t a, std::size_t b) {
        return sampler.at(a).seq < sampler.at(b).seq;
      });
      const std::uint64_t arrived = static_cast<std::uint64_t>(
          tb.telemetry().metrics.snapshot().sum(
              "dhl.nic.rx_pkts", {{"port", ports[p]->name()}}));
      std::uint64_t need = mine.empty() ? 0 : sampler.at(mine.back()).seq + 1;
      if (kind == Kind::kNids) need = std::max(need, arrived);
      std::size_t next = 0;
      const std::uint64_t attacks = replay(
          p, need, [&](std::uint64_t seq, std::span<const std::uint8_t> f) {
        while (next < mine.size() && sampler.at(mine[next]).seq == seq) {
          if (failure.empty()) {
            failure = check_sample(sampler.at(mine[next]),
                                   sampler.bytes(mine[next]), f);
          }
          ++checked;
          ++next;
        }
      });
      if (failure.empty() && kind == Kind::kNids && !opt.capacity &&
          nids->stats().pattern_hits != attacks) {
        failure = "NIDS pattern hits " +
                  std::to_string(nids->stats().pattern_hits) +
                  " != ground truth " + std::to_string(attacks);
      }
    }
    if (failure.empty() && checked == 0) failure = "no output was sampled";
    return failure;
  }
};

Rig::Rig(const RigOptions& options) : impl_{std::make_unique<Impl>(options)} {
  impl_->build();
}
Rig::~Rig() = default;

dhl::nf::Testbed& Rig::testbed() { return impl_->tb; }
dhl::runtime::DhlRuntime& Rig::runtime() { return *impl_->rt; }
std::vector<dhl::netio::NicPort*> Rig::ports() { return impl_->ports; }

Picos Rig::warmup() const { return milliseconds(1); }

Picos Rig::window() const {
  // Long enough that one trial's window is most of its wall time, and that
  // the fixed-rate latency has >= 10 samples beyond its p99.9.
  switch (impl_->kind) {
    case Kind::kIpsec: return milliseconds(impl_->opt.capacity ? 4 : 6);
    case Kind::kNids: return milliseconds(impl_->opt.capacity ? 6 : 12);
    case Kind::kChain: return milliseconds(impl_->opt.capacity ? 4 : 6);
  }
  return 0;
}

void Rig::start_traffic() {
  for (std::size_t p = 0; p < impl_->ports.size(); ++p) {
    impl_->ports[p]->start_traffic(impl_->traffic[p], 1.0);
  }
}

void Rig::stop_traffic() {
  for (auto* port : impl_->ports) port->stop_traffic();
}

double Rig::delivered_input_wire_bytes(const dhl::netio::NicPort& port) const {
  const auto& tx = port.tx_meter();
  const std::uint32_t len = impl_->fixed_frame_len();
  if (len != 0) {
    return static_cast<double>(tx.frames()) *
           static_cast<double>(dhl::wire_bytes(len));
  }
  // IMIX through the chain keeps every frame's length.
  return static_cast<double>(tx.payload_bytes()) +
         static_cast<double>(tx.frames()) * dhl::kEthernetWireOverhead;
}

NfDrops Rig::nf_drops() const {
  NfDrops d;
  if (impl_->offload_nf) {
    const auto& s = impl_->offload_nf->stats();
    d.ibq_refusals = s.ibq_drops;
    d.verdict = s.prep_drops + s.post_drops;
  }
  for (const auto& c : impl_->chains) {
    d.ibq_refusals += c->stats().ibq_drops;
    d.verdict += c->stats().dropped + c->stats().bad_port_drops;
  }
  return d;
}

std::uint64_t Rig::in_flight() {
  std::uint64_t n = impl_->rt->in_flight();
  for (auto* port : impl_->ports) n += port->rx_queue_depth();
  for (int s = 0; s < impl_->sockets; ++s) {
    n += impl_->rt->packer().ibq(s).count();
  }
  for (std::size_t id = 0; id < impl_->rt->nf_count(); ++id) {
    n += impl_->rt->get_private_obq(static_cast<dhl::netio::NfId>(id)).count();
  }
  return n;
}

void Rig::begin_window() {
  Impl& im = *impl_;
  for (std::size_t p = 0; p < im.ports.size(); ++p) {
    Picos stamp = 0;
    for (std::uint64_t i = 0; i < im.ports[p]->tx_meter().frames(); ++i) {
      if (!im.stamps[p].pop(stamp)) im.stamp_mismatch = true;
    }
    im.tx_seen[p] = 0;
  }
  im.latencies.clear();
  im.tb.reset_port_stats();
}

void Rig::observe_tx() {
  Impl& im = *impl_;
  const Picos now = im.tb.sim().now();
  for (std::size_t p = 0; p < im.ports.size(); ++p) {
    const std::uint64_t sent = im.ports[p]->tx_meter().frames();
    for (; im.tx_seen[p] < sent; ++im.tx_seen[p]) {
      Picos stamp = 0;
      if (!im.stamps[p].pop(stamp) || stamp > now) {
        im.stamp_mismatch = true;
        continue;
      }
      im.latencies.push_back(now - stamp);
    }
  }
}

const std::vector<Picos>& Rig::tx_latencies() const {
  return impl_->latencies;
}

std::string Rig::verify() {
  for (const auto& q : impl_->stamps) {
    if (q.overflow()) impl_->stamp_mismatch = true;
  }
  if (impl_->stamp_mismatch) {
    return "transmitted frames did not match the forwarded packets' stamps";
  }
  return impl_->verify();
}
std::size_t Rig::samples_checked() const { return impl_->checked; }

}  // namespace perfbench
