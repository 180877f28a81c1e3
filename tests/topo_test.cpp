// Topology substrate tests: segments, frame delivery semantics, unicast
// forwarding, TTL, link failure, address plan.
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "topo/network.hpp"
#include "topo/segment.hpp"
#include "unicast/oracle_routing.hpp"

namespace pimlib::test {
namespace {

TEST(Network, AddressPlan) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    EXPECT_EQ(r1.router_id(), net::Ipv4Address(192, 168, 0, 1));
    EXPECT_EQ(r2.router_id(), net::Ipv4Address(192, 168, 0, 2));

    auto& link = net.add_link(r1, r2);
    EXPECT_EQ(link.prefix().to_string(), "10.0.0.0/24");
    EXPECT_EQ(r1.interface(0).address, net::Ipv4Address(10, 0, 0, 1));
    EXPECT_EQ(r2.interface(0).address, net::Ipv4Address(10, 0, 0, 2));

    auto& lan = net.add_lan({&r1, &r2});
    EXPECT_EQ(lan.prefix().to_string(), "10.0.1.0/24");
    auto& host = net.add_host("h", lan);
    EXPECT_EQ(host.address(), net::Ipv4Address(10, 0, 1, 3));
    EXPECT_TRUE(lan.is_lan());
    EXPECT_FALSE(link.is_lan());
}

TEST(Network, FindLink) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    auto& link = net.add_link(r1, r2);
    EXPECT_EQ(net.find_link(r1, r2), &link);
    EXPECT_EQ(net.find_link(r2, r1), &link);
    EXPECT_EQ(net.find_link(r1, r3), nullptr);
}

TEST(Segment, UnicastFrameReachesOnlyAddressee) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    auto& lan = net.add_lan({&r1, &r2, &r3});

    int r2_count = 0;
    int r3_count = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++r2_count; });
    r3.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++r3_count; });

    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = r2.interface(0).address;
    p.proto = net::IpProto::kCbt;
    r1.send(r1.ifindex_on(lan).value(), net::Frame{r2.interface(0).address, p});
    net.simulator().run();
    EXPECT_EQ(r2_count, 1);
    EXPECT_EQ(r3_count, 0);
}

TEST(Segment, BroadcastFrameReachesAllButSender) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    net.add_lan({&r1, &r2, &r3});
    int count = 0;
    auto handler = [&](int, const net::Packet&) { ++count; };
    r1.register_protocol(net::IpProto::kCbt, handler);
    r2.register_protocol(net::IpProto::kCbt, handler);
    r3.register_protocol(net::IpProto::kCbt, handler);

    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;
    r1.send(0, net::Frame{std::nullopt, p});
    net.simulator().run();
    EXPECT_EQ(count, 2); // not the sender
}

TEST(Segment, DownSegmentDropsFrames) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& link = net.add_link(r1, r2);
    int count = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++count; });
    link.set_up(false);
    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;
    r1.send(0, net::Frame{std::nullopt, p});
    net.simulator().run();
    EXPECT_EQ(count, 0);
}

TEST(Segment, DownInterfaceDropsAtReceiver) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2);
    int count = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++count; });
    r2.set_interface_up(0, false);
    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;
    r1.send(0, net::Frame{std::nullopt, p});
    net.simulator().run();
    EXPECT_EQ(count, 0);
}

TEST(Segment, PropagationDelayApplied) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2, 5 * sim::kMillisecond);
    sim::Time arrival = 0;
    r2.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) {
        arrival = net.simulator().now();
    });
    net::Packet p;
    p.src = r1.interface(0).address;
    p.dst = net::kAllRouters;
    p.proto = net::IpProto::kCbt;
    r1.send(0, net::Frame{std::nullopt, p});
    net.simulator().run();
    EXPECT_EQ(arrival, 5 * sim::kMillisecond);
}

TEST(Router, ForwardsUnicastAlongShortestPath) {
    // r1 — r2 — r3; send from r1 to r3's router id.
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    net.add_link(r1, r2);
    net.add_link(r2, r3);
    unicast::OracleRouting routing(net);

    int delivered = 0;
    r3.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet& p) {
        ++delivered;
        EXPECT_EQ(p.ttl, 63); // one forwarding hop at r2
    });
    net::Packet p;
    p.dst = r3.router_id();
    p.proto = net::IpProto::kCbt;
    p.ttl = 64;
    r1.originate_unicast(std::move(p));
    net.simulator().run();
    EXPECT_EQ(delivered, 1);
}

TEST(Router, TtlExpiryDropsPacket) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    auto& r3 = net.add_router("r3");
    net.add_link(r1, r2);
    net.add_link(r2, r3);
    unicast::OracleRouting routing(net);
    int delivered = 0;
    r3.register_protocol(net::IpProto::kCbt, [&](int, const net::Packet&) { ++delivered; });
    net::Packet p;
    p.dst = r3.router_id();
    p.proto = net::IpProto::kCbt;
    p.ttl = 1; // dies at r2
    r1.originate_unicast(std::move(p));
    net.simulator().run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(net.stats().data_dropped_ttl(), 1u);
}

TEST(Router, NoRouteDropsAndCounts) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2);
    unicast::OracleRouting routing(net);
    net::Packet p;
    p.dst = net::Ipv4Address(203, 0, 113, 7);
    p.proto = net::IpProto::kCbt;
    r1.originate_unicast(std::move(p));
    net.simulator().run();
    EXPECT_EQ(net.stats().data_dropped_no_route(), 1u);
}

TEST(Router, LocalAddressRecognition) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");
    net.add_link(r1, r2);
    EXPECT_TRUE(r1.is_local_address(r1.router_id()));
    EXPECT_TRUE(r1.is_local_address(r1.interface(0).address));
    EXPECT_FALSE(r1.is_local_address(r2.router_id()));
}

TEST(Host, StreamsCarrySequenceNumbers) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& lan = net.add_lan({&r1});
    auto& sender = net.add_host("s", lan);
    auto& listener = net.add_host("l", lan);
    listener.join_group(kGroup);
    sender.send_stream(kGroup, 3, 10 * sim::kMillisecond);
    net.simulator().run();
    ASSERT_EQ(listener.received().size(), 3u);
    EXPECT_EQ(listener.received()[0].seq, 1u);
    EXPECT_EQ(listener.received()[2].seq, 3u);
    EXPECT_EQ(listener.duplicate_count(), 0u);
    EXPECT_EQ(listener.received_count_from(sender.address(), kGroup), 3u);
}

TEST(Host, NonMemberIgnoresData) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& lan = net.add_lan({&r1});
    auto& sender = net.add_host("s", lan);
    auto& listener = net.add_host("l", lan);
    sender.send_data(kGroup);
    net.simulator().run();
    EXPECT_EQ(listener.received().size(), 0u);
}

TEST(Stats, FlowAndPacketAccounting) {
    topo::Network net;
    auto& r1 = net.add_router("r1");
    auto& lan = net.add_lan({&r1});
    auto& sender = net.add_host("s", lan);
    sender.send_stream(kGroup, 4, sim::kMillisecond);
    net.simulator().run();
    EXPECT_EQ(net.stats().data_packets_on(lan.id()), 4u);
    EXPECT_EQ(net.stats().total_data_packets(), 4u);
    net.stats().reset_data_counters();
    EXPECT_EQ(net.stats().total_data_packets(), 0u);
}

} // namespace
} // namespace pimlib::test
