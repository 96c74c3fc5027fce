// Unit tests for the discrete-event simulator and the network substrate:
// event ordering, link timing, queueing, loss models, probes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netsim/loss.hpp"
#include "netsim/network.hpp"
#include "netsim/sim.hpp"
#include "obs/obs.hpp"

using namespace ncfn::netsim;

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.schedule(0.5, recurse);
  };
  sim.schedule(0.5, recurse);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, CancelSuppressesEvent) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(2.0, [&] { ++fired; });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(1.0, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // must not blow up or affect later events
  sim.schedule(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

namespace {
/// Counts copies of itself; moves are free. Held by an event callable, it
/// shows whether the simulator copies events on the way out of the queue.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
};
}  // namespace

TEST(Simulator, PopMovesEventsOutWithoutCopying) {
  Simulator sim;
  int copies = 0;
  int fired = 0;
  // Several events so the heap reorders them on push and pop.
  for (int i = 0; i < 8; ++i) {
    sim.schedule(8.0 - i,
                 [c = CopyCounter(&copies), &fired] { ++fired; });
  }
  sim.run();
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(copies, 0);
}

namespace {
Network make_two_node_net(double capacity_bps, double delay_s,
                          std::size_t queue = 512) {
  Network net(1);
  net.add_node("a");
  net.add_node("b");
  LinkConfig lc;
  lc.capacity_bps = capacity_bps;
  lc.prop_delay = delay_s;
  lc.queue_packets = queue;
  net.add_link(0, 1, lc);
  return net;
}

Datagram make_dgram(NodeId src, NodeId dst, Port port, std::size_t bytes) {
  Datagram d;
  d.src = src;
  d.dst = dst;
  d.dst_port = port;
  d.payload.assign(bytes, 0xAB);
  return d;
}
}  // namespace

TEST(Network, DeliversWithSerializationPlusPropagation) {
  Network net = make_two_node_net(8e6, 0.05);  // 8 Mbps, 50 ms
  double arrival = -1;
  net.bind(1, 9, [&](const Datagram&) { arrival = net.sim().now(); });
  // 972-byte payload + 28 overhead = 1000 B = 8000 bits -> 1 ms serialize.
  ASSERT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
  net.sim().run();
  EXPECT_NEAR(arrival, 0.051, 1e-9);
}

TEST(Network, BackToBackPacketsQueueBehindSerializer) {
  Network net = make_two_node_net(8e6, 0.0);
  std::vector<double> arrivals;
  net.bind(1, 9, [&](const Datagram&) { arrivals.push_back(net.sim().now()); });
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
  net.sim().run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 0.001, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.002, 1e-9);
  EXPECT_NEAR(arrivals[2], 0.003, 1e-9);
}

TEST(Network, TailDropWhenQueueFull) {
  Network net = make_two_node_net(8e6, 0.0, /*queue=*/2);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  for (int i = 0; i < 10; ++i) net.send(make_dgram(0, 1, 9, 972));
  net.sim().run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.link(0, 1)->stats().dropped_queue, 8u);
}

TEST(Network, NoLinkMeansSendFails) {
  Network net = make_two_node_net(8e6, 0.0);
  EXPECT_FALSE(net.send(make_dgram(1, 0, 9, 10)));  // reverse direction
}

TEST(Network, UnboundPortDropsSilently) {
  Network net = make_two_node_net(8e6, 0.0);
  ASSERT_TRUE(net.send(make_dgram(0, 1, 1234, 10)));
  net.sim().run();  // no crash, packet vanished
  EXPECT_EQ(net.link(0, 1)->stats().delivered, 1u);
}

TEST(Network, UnbindStopsDelivery) {
  Network net = make_two_node_net(8e6, 0.0);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  net.send(make_dgram(0, 1, 9, 10));
  net.sim().run();
  net.unbind(1, 9);
  net.send(make_dgram(0, 1, 9, 10));
  net.sim().run();
  EXPECT_EQ(delivered, 1);
}

TEST(Network, CapacityChangeAffectsOnlyLaterPackets) {
  Network net = make_two_node_net(8e6, 0.0);
  std::vector<double> arrivals;
  net.bind(1, 9, [&](const Datagram&) { arrivals.push_back(net.sim().now()); });
  net.send(make_dgram(0, 1, 9, 972));                 // 1 ms at 8 Mbps
  net.link(0, 1)->set_capacity_bps(4e6);              // halve
  net.send(make_dgram(0, 1, 9, 972));                 // 2 ms at 4 Mbps
  net.sim().run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.001, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.003, 1e-9);
}

TEST(Network, PingRttSumsBothDirections) {
  Network net(1);
  net.add_node("a");
  net.add_node("b");
  LinkConfig fwd{8e6, 0.030, 512};
  LinkConfig rev{8e6, 0.040, 512};
  net.add_link(0, 1, fwd);
  net.add_link(1, 0, rev);
  const auto rtt = net.ping_rtt(0, 1, 972);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_NEAR(*rtt, 0.030 + 0.040 + 2 * 0.001, 1e-9);
  EXPECT_FALSE(net.ping_rtt(0, 0, 64).has_value());
}

TEST(Network, BandwidthProbeIsNoisyButCentered) {
  Network net = make_two_node_net(100e6, 0.01);
  double sum = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const auto bw = net.probe_bandwidth_bps(0, 1, 0.02);
    ASSERT_TRUE(bw.has_value());
    EXPECT_GE(*bw, 98e6 - 1);
    EXPECT_LE(*bw, 102e6 + 1);
    sum += *bw;
  }
  EXPECT_NEAR(sum / n, 100e6, 0.5e6);
}

TEST(Network, JitterBoundsAndReordersDeliveries) {
  Network net(5);
  net.add_node("a");
  net.add_node("b");
  LinkConfig lc;
  lc.capacity_bps = 1e9;
  lc.prop_delay = 0.010;
  lc.jitter = 0.005;
  net.add_link(0, 1, lc);
  std::vector<std::uint64_t> order;
  std::vector<double> arrivals;
  net.bind(1, 9, [&](const Datagram& d) {
    order.push_back(d.payload[0]);
    arrivals.push_back(net.sim().now());
  });
  for (int i = 0; i < 200; ++i) {
    Datagram d;
    d.src = 0;
    d.dst = 1;
    d.dst_port = 9;
    d.payload = {static_cast<std::uint8_t>(i)};
    net.send(std::move(d));
  }
  net.sim().run();
  ASSERT_EQ(order.size(), 200u);
  // Every delivery within [prop, prop + jitter] of its serialization end.
  for (double t : arrivals) {
    EXPECT_GE(t, 0.010 - 1e-12);
    EXPECT_LE(t, 0.010 + 0.005 + 200 * 29 * 8 / 1e9 + 1e-9);
  }
  // And the stream is genuinely reordered.
  bool reordered = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(Network, ZeroJitterKeepsOrder) {
  Network net = make_two_node_net(1e9, 0.01);
  std::vector<std::uint8_t> order;
  net.bind(1, 9,
           [&](const Datagram& d) { order.push_back(d.payload[0]); });
  for (int i = 0; i < 50; ++i) {
    Datagram d;
    d.src = 0;
    d.dst = 1;
    d.dst_port = 9;
    d.payload = {static_cast<std::uint8_t>(i)};
    net.send(std::move(d));
  }
  net.sim().run();
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// ---- Bursts: a single send is a burst of one ----

namespace {
/// `n` datagrams 0→1 of 972 bytes (1000 B on the wire), payload[0] =
/// their index.
std::vector<Datagram> make_burst(std::size_t n, Port port = 9) {
  std::vector<Datagram> burst;
  for (std::size_t i = 0; i < n; ++i) {
    Datagram d = make_dgram(0, 1, port, 972);
    d.payload[0] = static_cast<std::uint8_t>(i);
    burst.push_back(std::move(d));
  }
  return burst;
}
}  // namespace

TEST(Burst, OneDepartureAndOneDeliveryEventPerBurst) {
  Network net = make_two_node_net(8e6, 0.05);
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  net.send_burst(make_burst(16));
  EXPECT_EQ(net.sim().run(), 2u);
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.link(0, 1)->stats().delivered, 16u);
}

TEST(Burst, PacketsLandInOrderAtTheLastPacketsDeliveryTime) {
  // 8 Mbps, 1000 B on the wire: the fourth packet leaves the serializer
  // at 4 ms and lands 50 ms later; the whole burst lands with it.
  Network net = make_two_node_net(8e6, 0.05);
  std::vector<std::uint8_t> order;
  std::vector<double> arrivals;
  net.bind(1, 9, [&](const Datagram& d) {
    order.push_back(d.payload[0]);
    arrivals.push_back(net.sim().now());
  });
  net.send_burst(make_burst(4));
  net.sim().run();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 3}));
  ASSERT_EQ(arrivals.size(), 4u);
  for (double t : arrivals) EXPECT_NEAR(t, 0.054, 1e-9);
}

TEST(Burst, SingleSendMatchesOneElementBurst) {
  // Same traffic through send() and through one-element send_burst():
  // identical trace bytes and simulator event counts, jitter included.
  auto run = [](bool as_burst) {
    ncfn::obs::Observability obs;  // outlives the network, as set_obs requires
    Network net(3);
    obs.trace.enable();
    obs.trace.set_clock([&net] { return net.sim().now(); });
    net.add_node("a");
    net.add_node("b");
    LinkConfig lc;
    lc.capacity_bps = 8e6;
    lc.prop_delay = 0.01;
    lc.queue_packets = 3;
    lc.jitter = 0.002;
    net.add_link(0, 1, lc);
    net.set_obs(&obs);
    net.link(0, 1)->set_loss_model(std::make_unique<UniformLoss>(0.2));
    int delivered = 0;
    net.bind(1, 9, [&](const Datagram&) { ++delivered; });
    for (int i = 0; i < 40; ++i) {
      net.sim().schedule_at(0.0005 * i, [&net, as_burst] {
        if (as_burst) {
          std::vector<Datagram> one;
          one.push_back(make_dgram(0, 1, 9, 972));
          net.send_burst(std::move(one));
        } else {
          EXPECT_TRUE(net.send(make_dgram(0, 1, 9, 972)));
        }
      });
    }
    const std::size_t events = net.sim().run();
    return std::make_pair(events, obs.trace.data() + "delivered=" +
                                      std::to_string(delivered));
  };
  const auto single = run(false);
  const auto burst = run(true);
  EXPECT_EQ(single.first, burst.first);
  EXPECT_EQ(single.second, burst.second);
  // The run exercised loss and tail drop, not only clean deliveries.
  EXPECT_NE(single.second.find("\"reason\":\"loss\""), std::string::npos);
  EXPECT_NE(single.second.find("\"reason\":\"queue\""), std::string::npos);
}

TEST(Burst, DatagramHandlerSeesBurstOneDatagramAtATime) {
  Network net = make_two_node_net(8e6, 0.0);
  std::vector<std::uint8_t> order;
  net.bind(1, 9, [&](const Datagram& d) { order.push_back(d.payload[0]); });
  net.send_burst(make_burst(5));
  net.sim().run();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
}

TEST(Burst, BurstHandlerReceivesEachSamePortRunInOneCall) {
  Network net = make_two_node_net(8e6, 0.0);
  std::vector<std::pair<Port, std::vector<std::uint8_t>>> calls;
  auto record = [&calls](Port port) {
    return [&calls, port](std::span<Datagram> run) {
      std::vector<std::uint8_t> ids;
      for (const Datagram& d : run) ids.push_back(d.payload[0]);
      calls.emplace_back(port, std::move(ids));
    };
  };
  net.bind_burst(1, 9, record(9));
  net.bind_burst(1, 10, record(10));
  std::vector<Datagram> burst = make_burst(6);
  for (const std::size_t i : {3, 4}) burst[i].dst_port = 10;
  net.send_burst(std::move(burst));
  EXPECT_EQ(net.sim().run(), 2u);  // still one link burst
  using Call = std::pair<Port, std::vector<std::uint8_t>>;
  EXPECT_EQ(calls, (std::vector<Call>{
                       {9, {0, 1, 2}}, {10, {3, 4}}, {9, {5}}}));
}

TEST(Burst, BindAndBindBurstShareOnePortSlot) {
  // One handler per port: the later binding replaces the earlier one,
  // and unbind removes whichever is bound.
  Network net = make_two_node_net(8e6, 0.0);
  int singles = 0;
  int runs = 0;
  net.bind(1, 9, [&](const Datagram&) { ++singles; });
  net.bind_burst(1, 9, [&](std::span<Datagram>) { ++runs; });
  net.send_burst(make_burst(3));
  net.sim().run();
  EXPECT_EQ(singles, 0);
  EXPECT_EQ(runs, 1);
  net.unbind(1, 9);
  net.send_burst(make_burst(3));
  net.sim().run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(net.link(0, 1)->stats().delivered, 6u);
}

// ---- Loss models ----

TEST(Loss, UniformRateIsStatisticallyCorrect) {
  std::mt19937 rng(123);
  UniformLoss loss(0.3);
  int drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.3, 0.02);
}

TEST(Loss, NoLossNeverDrops) {
  std::mt19937 rng(1);
  NoLoss loss;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(loss.drop(rng));
}

TEST(Loss, BurstStationaryRateNearPaperFormula) {
  // P_n = 0.25 P_{n-1} + P converges to P / 0.75 when drops are rare.
  std::mt19937 rng(7);
  const double p = 0.02;
  BurstLoss loss(p);
  int drops = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, p / 0.75, 0.005);
}

TEST(Loss, BurstZeroPNeverDrops) {
  std::mt19937 rng(7);
  BurstLoss loss(0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(loss.drop(rng));
}

TEST(Loss, GilbertElliottBadStateDropsMore) {
  std::mt19937 rng(9);
  GilbertElliottLoss loss(0.05, 0.2, 0.001, 0.5);
  int drops = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  // Stationary bad-state probability = 0.05/(0.05+0.2) = 0.2
  // -> overall ~ 0.2*0.5 + 0.8*0.001 ~ 0.10.
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.10, 0.02);
}

TEST(Loss, GilbertElliottSamplesBeforeTransition) {
  // Deterministic alternation (p_gb = p_bg = 1): the first packet must be
  // sampled in the initial good state and survive; dropping it means the
  // implementation transitioned before sampling.
  std::mt19937 rng(1);
  GilbertElliottLoss loss(1.0, 1.0, 0.0, 1.0);
  EXPECT_FALSE(loss.drop(rng));  // good
  EXPECT_TRUE(loss.drop(rng));   // bad
  EXPECT_FALSE(loss.drop(rng));  // good again
}

TEST(Loss, GilbertElliottStationaryLossRate) {
  // Stationary bad-state share = p_gb/(p_gb+p_bg) = 0.2; with a lossless
  // good state the long-run loss rate is exactly 0.2 * loss_bad = 0.06.
  std::mt19937 rng(17);
  GilbertElliottLoss loss(0.02, 0.08, 0.0, 0.3);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) drops += loss.drop(rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.06, 0.006);
}

TEST(Network, LinkLossModelDropsPackets) {
  Network net = make_two_node_net(100e6, 0.0, /*queue=*/4096);
  net.link(0, 1)->set_loss_model(std::make_unique<UniformLoss>(0.5));
  int delivered = 0;
  net.bind(1, 9, [&](const Datagram&) { ++delivered; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) net.send(make_dgram(0, 1, 9, 100));
  net.sim().run();
  EXPECT_NEAR(delivered, n / 2, 120);
  EXPECT_EQ(net.link(0, 1)->stats().dropped_loss + net.link(0, 1)->stats().delivered,
            static_cast<std::uint64_t>(n));
}
