#pragma once

// Simple forwarding NFs used by Table I and the Fig 6 "I/O" baseline:
// L2fwd (MAC swap), L3fwd-lpm (longest-prefix-match routing) and a raw
// I/O forwarder (rx -> tx, no processing).

#include <memory>

#include "dhl/netio/lpm.hpp"
#include "dhl/nf/chain.hpp"

namespace dhl::nf {

/// L2fwd: swap source/destination MAC and forward (DPDK's l2fwd example).
PacketFn l2fwd_fn();
CostFn l2fwd_cost(const sim::TimingParams& timing);

/// L3fwd-lpm: longest-prefix-match on the destination address, TTL
/// decrement, MAC rewrite.  Drops on lookup miss.
PacketFn l3fwd_fn(std::shared_ptr<const netio::LpmTable> table);
CostFn l3fwd_cost(const sim::TimingParams& timing);

/// Route table covering the pktgen's destination range (10 /24 prefixes
/// plus a default route), so l3fwd lookups always resolve.
std::shared_ptr<netio::LpmTable> make_test_routes(std::uint32_t dst_ip_base,
                                                  std::uint32_t num_flows);

/// Raw I/O: forward untouched (the "I/O" series of Fig 6).
PacketFn io_fwd_fn();
CostFn zero_cost();

}  // namespace dhl::nf
