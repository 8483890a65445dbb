#include "tracer.hpp"

#include <chrono>
#include <cstdlib>
#include <new>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Epoch {
  Clock::time_point wall = Clock::now();
  std::uint64_t ticks = Tracer::ticks();
};

const Epoch& epoch() {
  static const Epoch e;
  return e;
}
// Anchor the calibration epoch at static-initialisation time so the
// baseline spans the whole process.
[[maybe_unused]] const Epoch& g_epoch_anchor = epoch();

/// Forwarding proxy: identical behaviour, plus an accel span per record.
class TracedModule final : public dhl::fpga::AcceleratorModule {
 public:
  TracedModule(dhl::fpga::ModulePtr inner, Layer layer)
      : inner_{std::move(inner)}, layer_{layer} {}

  const std::string& name() const override { return inner_->name(); }
  dhl::fpga::ModuleResources resources() const override {
    return inner_->resources();
  }
  dhl::fpga::ModuleTiming timing() const override { return inner_->timing(); }
  std::vector<dhl::fpga::ModuleTiming> stage_timings() const override {
    return inner_->stage_timings();
  }
  void configure(std::span<const std::uint8_t> config) override {
    inner_->configure(config);
  }
  dhl::fpga::ProcessResult process(std::span<std::uint8_t> data) override {
    Span span{layer_};
    return inner_->process(data);
  }

 private:
  dhl::fpga::ModulePtr inner_;
  Layer layer_;
};

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case kNoLayer: return "bench";
    case kSim: return "sim";
    case kPacker: return "dhl.packer";
    case kDistributor: return "dhl.distributor";
    case kPrep: return "nf.prep";
    case kPost: return "nf.post";
    case kAccelIpsec: return "accel.ipsec-crypto";
    case kAccelPattern: return "accel.pattern-matching";
    case kAccelMd5: return "accel.md5-auth";
    case kAccelAes: return "accel.aes256-ctr";
    case kAccelOther: return "accel.other";
    case kLayerCount: break;
  }
  return "?";
}

Layer accel_layer(const std::string& hf_name) {
  if (hf_name == "ipsec-crypto") return kAccelIpsec;
  if (hf_name == "pattern-matching") return kAccelPattern;
  if (hf_name == "md5-auth") return kAccelMd5;
  if (hf_name == "aes256-ctr") return kAccelAes;
  return kAccelOther;
}

std::uint64_t Tracer::ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

double Tracer::ns_per_tick() {
  const Epoch& e = epoch();
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           e.wall)
          .count());
  const std::uint64_t dt = ticks() - e.ticks;
  return dt > 0 ? ns / static_cast<double>(dt) : 1.0;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

dhl::fpga::BitstreamDatabase traced_database(
    const dhl::fpga::BitstreamDatabase& base) {
  dhl::fpga::BitstreamDatabase out;
  for (const std::string& name : base.names()) {
    dhl::fpga::PartialBitstream b = *base.find(name);
    b.factory = [inner = std::move(b.factory), layer = accel_layer(name)] {
      return std::make_unique<TracedModule>(inner(), layer);
    };
    out.add(std::move(b));
  }
  return out;
}

}  // namespace perfbench

// --- allocation counting ------------------------------------------------------
// Every heap allocation made while tracing is on is charged to the innermost
// open span.  Off, the hook is one predictable branch.

namespace {
void* counted_alloc(std::size_t size) {
  perfbench::Tracer& t = perfbench::tracer();
  if (t.on()) t.count_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
