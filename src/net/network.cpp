#include "net/network.hpp"

#include <utility>

#include "common/check.hpp"

namespace dk::net {

std::uint64_t wire_bytes(std::uint64_t payload, unsigned mtu) {
  // Payload per frame excludes IP+TCP headers (40 bytes) from the MTU.
  const std::uint64_t per_frame = mtu > 40 ? mtu - 40 : 1;
  const std::uint64_t frames =
      payload == 0 ? 1 : (payload + per_frame - 1) / per_frame;
  return payload + frames * kFrameOverheadBytes +
         frames * 40;  // 40 = IP+TCP headers carried inside the MTU
}

Network::Network(sim::Simulator& sim, FabricConfig config)
    : sim_(sim), config_(config) {}

NodeId Network::add_node(std::string name, DeliveryFn on_delivery) {
  auto node = std::make_unique<Node>();
  node->name = std::move(name);
  node->deliver = std::move(on_delivery);
  const double bytes_per_sec = config_.nic.link_bits_per_sec / 8.0;
  node->tx = std::make_unique<sim::BandwidthChannel>(
      sim_, bytes_per_sec, config_.nic.nic_latency, "tx");
  node->rx = std::make_unique<sim::BandwidthChannel>(
      sim_, bytes_per_sec, config_.nic.nic_latency, "rx");
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

bool Network::send(Message msg) {
  DK_CHECK(msg.src < nodes_.size() && msg.dst < nodes_.size());
  payload_sent_ += msg.payload_bytes;

  Node& dst = *nodes_[msg.dst];
  if (msg.src == msg.dst) {
    // Loopback: no serialization, only local processing latency.
    dst.rx_payload += msg.payload_bytes;
    sim_.schedule_after(config_.nic.nic_latency,
                        [&dst, m = std::move(msg)] { dst.deliver(m); });
    return true;
  }

  // Injected frame loss: the whole message is lost on the wire and delivery
  // never fires (the model folds segment loss and the absent retransmit into
  // one event; recovery belongs to the client-side retry policy). The TX
  // serialization cost is still paid below only for delivered messages —
  // dropping before serialization keeps the fabric channels independent of
  // fault decisions, which preserves single-domain replayability.
  if (faults_ != nullptr && faults_->should_drop_frame(msg.src, msg.dst))
    return false;
  const Nanos extra_delay =
      faults_ != nullptr ? faults_->link_extra_delay(msg.src, msg.dst) : 0;

  Node& src = *nodes_[msg.src];
  const std::uint64_t wire = wire_bytes(msg.payload_bytes, config_.nic.mtu);
  // The message waits in a slot, so each hop's event captures only the
  // slot index.
  if (idle_.empty()) {
    idle_.push_back(static_cast<std::uint32_t>(in_flight_.size()));
    in_flight_.emplace_back();
  }
  const std::uint32_t slot = idle_.back();
  idle_.pop_back();
  in_flight_[slot] = InFlight{std::move(msg), wire,
                              config_.switch_latency + extra_delay};
  // TX serialization (+ NIC latency folded into the channel) ...
  src.tx->transfer(wire, [this, slot] {
    // ... switch forwarding (+ injected congestion delay) ...
    sim_.schedule_after(in_flight_[slot].forward_delay, [this, slot] {
      // ... RX serialization at the receiver.
      const InFlight& f = in_flight_[slot];
      nodes_[f.msg.dst]->rx->transfer(f.wire, [this, slot] {
        const Message m = std::move(in_flight_[slot].msg);
        idle_.push_back(slot);
        Node& dst = *nodes_[m.dst];
        dst.rx_payload += m.payload_bytes;
        dst.deliver(m);
      });
    });
  });
  return true;
}

double Network::node_rx_mbps(NodeId id, Nanos elapsed) const {
  DK_CHECK(id < nodes_.size());
  return mb_per_sec(nodes_[id]->rx_payload, elapsed);
}

double run_iperf(Network& net, NodeId a, NodeId b, Nanos duration,
                 std::uint64_t segment_bytes) {
  // Stream back-to-back segments from a private source node that shares a's
  // TX characteristics, into a private sink that counts goodput. A small
  // in-flight window keeps the pipe full without modeling a full TCP state
  // machine (the testbed link is uncongested).
  (void)a;
  (void)b;
  sim::Simulator& sim = net.simulator();
  const Nanos start = sim.now();
  const Nanos deadline = start + duration;
  constexpr int kWindow = 8;

  // Shared state outlives this call: the sink node's delivery closure stays
  // registered in the fabric after we return.
  struct State {
    std::uint64_t received = 0;
    bool stop = false;
    NodeId src = 0, dst = 0;
  };
  auto st = std::make_shared<State>();

  st->src = net.add_node("iperf-src", [](const Message&) {});
  st->dst = net.add_node("iperf-dst",
                         [st, &net, &sim, deadline, segment_bytes](const Message& m) {
                           st->received += m.payload_bytes;
                           if (!st->stop && sim.now() < deadline)
                             net.send(Message{st->src, st->dst, segment_bytes,
                                              0, nullptr});
                         });
  for (int i = 0; i < kWindow; ++i)
    net.send(Message{st->src, st->dst, segment_bytes, 0, nullptr});
  sim.run_until(deadline);
  st->stop = true;
  sim.run();  // drain in-flight segments

  const Nanos elapsed = sim.now() - start;
  return static_cast<double>(st->received) * 8.0 / 1e9 / to_sec(elapsed);
}

}  // namespace dk::net
