// Tests for the simulated 10 GbE fabric, including the iperf validation the
// paper uses to characterize its testbed (9.8 Gb/s measured on 10 GbE).
#include <gtest/gtest.h>

#include "net/network.hpp"

namespace dk::net {
namespace {

TEST(WireBytes, SingleFrameSmallPayload) {
  // 4 kB fits one jumbo frame: payload + one 78B overhead + one 40B hdr set.
  EXPECT_EQ(wire_bytes(4096, 9000), 4096 + 78 + 40);
}

TEST(WireBytes, MultiFrameSplit) {
  // MTU 1500 -> 1460 payload bytes per frame; 4 kB needs 3 frames.
  EXPECT_EQ(wire_bytes(4096, 1500), 4096 + 3 * (78 + 40));
}

TEST(WireBytes, ZeroPayloadStillCostsAFrame) {
  EXPECT_EQ(wire_bytes(0, 9000), 78u + 40u);
}

TEST(Network, DeliversMessageWithLatency) {
  sim::Simulator sim;
  Network net(sim);
  bool got = false;
  Nanos at = 0;
  NodeId a = net.add_node("a", [](const Message&) {});
  NodeId b = net.add_node("b", [&](const Message& m) {
    got = true;
    at = sim.now();
    EXPECT_EQ(m.payload_bytes, 4096u);
    EXPECT_EQ(m.src, 0u);
  });
  net.send(Message{a, b, 4096, 0, nullptr});
  sim.run();
  ASSERT_TRUE(got);
  // 2x NIC latency (2.5us) + switch (1us) + 2x serialization (~3.4us each).
  EXPECT_GT(at, us(5));
  EXPECT_LT(at, us(20));
}

TEST(Network, LoopbackSkipsFabric) {
  sim::Simulator sim;
  Network net(sim);
  Nanos at = -1;
  NodeId a = net.add_node("a", [&](const Message&) { at = sim.now(); });
  net.send(Message{a, a, 1 * MiB, 0, nullptr});
  sim.run();
  EXPECT_EQ(at, kNicLatency);
}

TEST(Network, MessageBodyIsCarried) {
  sim::Simulator sim;
  Network net(sim);
  auto body = std::make_shared<int>(1234);
  int got = 0;
  NodeId a = net.add_node("a", [](const Message&) {});
  NodeId b = net.add_node("b", [&](const Message& m) {
    got = *std::static_pointer_cast<int>(m.body);
  });
  net.send(Message{a, b, 64, 7, body});
  sim.run();
  EXPECT_EQ(got, 1234);
}

TEST(Network, ConcurrentSendsShareLinkBandwidth) {
  sim::Simulator sim;
  Network net(sim);
  NodeId a = net.add_node("a", [](const Message&) {});
  std::vector<Nanos> arrivals;
  NodeId b =
      net.add_node("b", [&](const Message&) { arrivals.push_back(sim.now()); });
  // Two 1 MiB messages: the second must serialize after the first.
  net.send(Message{a, b, MiB, 0, nullptr});
  net.send(Message{a, b, MiB, 0, nullptr});
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const Nanos gap = arrivals[1] - arrivals[0];
  // 1 MiB at 1.25 GB/s is ~839 us serialization.
  EXPECT_GT(gap, us(700));
}

TEST(Network, IperfReaches9Point8GbpsOnJumboFrames) {
  // Reproduces the §III-C.1 testbed validation: "achieving a raw bandwidth
  // of 9.8 Gb/s on the 10 GbE network used".
  sim::Simulator sim;
  Network net(sim);
  const double gbps = run_iperf(net, 0, 0, ms(200));
  EXPECT_GT(gbps, 9.6);
  EXPECT_LT(gbps, 10.0);
}

TEST(Network, IperfStandardMtuIsSlower) {
  sim::Simulator sim;
  FabricConfig cfg;
  cfg.nic.mtu = 1500;
  Network net(sim, cfg);
  const double gbps = run_iperf(net, 0, 0, ms(200));
  EXPECT_GT(gbps, 9.0);
  EXPECT_LT(gbps, 9.5);  // framing overhead caps standard MTU below 9.5
}

TEST(Network, RxGoodputAccounting) {
  sim::Simulator sim;
  Network net(sim);
  NodeId a = net.add_node("a", [](const Message&) {});
  NodeId b = net.add_node("b", [](const Message&) {});
  net.send(Message{a, b, 10 * MiB, 0, nullptr});
  sim.run();
  EXPECT_GT(net.node_rx_mbps(b, sim.now()), 0.0);
  EXPECT_EQ(net.payload_bytes_sent(), 10 * MiB);
}

}  // namespace
}  // namespace dk::net
