// Simulated Ethernet fabric.
//
// Star topology: every node owns a full-duplex NIC (independent TX and RX
// bandwidth channels) attached to one switch. A message is serialized on the
// sender's TX link (with per-frame Ethernet + IP/TCP framing overhead),
// crosses the switch (fixed forwarding delay), and is serialized again on
// the receiver's RX link — store-and-forward, like the real testbed.
//
// The paper's testbed is 10 GbE validated at 9.8 Gb/s with iperf; with
// jumbo frames (MTU 9000) the framing model below yields ~9.84 Gb/s of
// goodput at line rate, matching that measurement (see tests/test_net.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/faults.hpp"
#include "sim/resources.hpp"
#include "sim/simulator.hpp"

namespace dk::net {

using NodeId = std::uint32_t;

constexpr double kLinkBitsPerSec = 10e9;  // 10 GbE
constexpr Nanos kNicLatency = us(2.5);     // per-NIC fixed processing delay
constexpr Nanos kSwitchLatency = us(1.0);  // cut-through forwarding delay

struct NicConfig {
  unsigned mtu = 9000;  // jumbo frames (testbed default)
};

struct FabricConfig {
  NicConfig nic;
};

/// Per-frame overhead on the wire: preamble+SFD(8) + Ethernet header(14) +
/// FCS(4) + interframe gap(12) + IPv4(20) + TCP(20).
constexpr std::uint64_t kFrameOverheadBytes = 78;

/// Bytes actually serialized on the wire for a `payload`-byte message.
std::uint64_t wire_bytes(std::uint64_t payload, unsigned mtu);

/// A delivered message. `payload` is opaque to the network layer.
struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t tag = 0;                   // caller-defined discriminator
  std::shared_ptr<void> body;              // caller-defined typed body
};

using DeliveryFn = sim::UniqueFn<void(const Message&)>;

class Network {
 public:
  Network(sim::Simulator& sim, FabricConfig config = {});

  sim::Simulator& simulator() { return sim_; }
  const FabricConfig& config() const { return config_; }

  /// Attach a node; returns its id. `on_delivery` fires for each message
  /// addressed to this node, at full-message arrival time.
  NodeId add_node(std::string name, DeliveryFn on_delivery);

  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(NodeId id) const { return nodes_[id]->name; }

  /// Send a message; delivery callback of `msg.dst` fires after TX
  /// serialization + switch + RX serialization + NIC latencies.
  /// Loopback (src == dst) skips the fabric and costs only nic_latency.
  /// With a fault injector attached, non-loopback messages may be dropped
  /// (whole-message frame loss — delivery never fires; send returns false)
  /// or delayed.
  bool send(Message msg);

  /// Arm fault injection on this fabric (nullptr detaches). Loopback is
  /// never faulted: it models in-host queue hand-off, not a wire.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  /// Total payload bytes handed to send() so far.
  std::uint64_t payload_bytes_sent() const { return payload_sent_; }

  /// Per-node achieved RX goodput over the elapsed sim time.
  double node_rx_mbps(NodeId id, Nanos elapsed) const;

 private:
  /// A message on the wire, between TX and delivery.
  struct InFlight {
    Message msg;
    std::uint64_t wire = 0;
    Nanos forward_delay = 0;
  };
  struct Node {
    std::string name;
    DeliveryFn deliver;
    std::unique_ptr<sim::BandwidthChannel> tx;
    std::unique_ptr<sim::BandwidthChannel> rx;
    std::uint64_t rx_payload = 0;
  };

  sim::Simulator& sim_;
  FabricConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<InFlight> in_flight_;  // by slot
  std::vector<std::uint32_t> idle_;
  std::uint64_t payload_sent_ = 0;
  sim::FaultInjector* faults_ = nullptr;
};

/// iperf-style validation: stream `duration` worth of back-to-back segments
/// from a to b and report achieved goodput in Gb/s.
double run_iperf(Network& net, NodeId a, NodeId b, Nanos duration,
                 std::uint64_t segment_bytes = 128 * 1024);

}  // namespace dk::net
