// The copy-free data path: net::Payload shares immutable bytes between
// every copy of a packet, and the steady-state multicast data path
// allocates only when a packet is originated — never per hop, per oif or
// per receiving station.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "pim/messages.hpp"
#include "test_util.hpp"

namespace {

// Global operator-new interposition for the allocation gate. Counting (not
// failing) keeps the hook harmless for every other test in the binary.
std::atomic<std::uint64_t> g_alloc_count{0};

} // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

// The replaced operator new above is malloc-based, so free() here is the
// matched deallocator — the compiler cannot see through the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pimlib::test {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return bytes;
}

TEST(Payload, CopySharesBytes) {
    const net::Payload a = pattern(1024);
    const std::uint64_t before = g_alloc_count.load();
    const net::Payload b = a; // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(g_alloc_count.load(), before) << "copying a payload must not allocate";
    EXPECT_EQ(b.data(), a.data());
    EXPECT_EQ(b.size(), 1024u);
    EXPECT_TRUE(std::ranges::equal(b, pattern(1024)));
}

TEST(Payload, TtlDecrementOnCopyLeavesOriginal) {
    net::Packet original;
    original.ttl = 10;
    original.seq = 5;
    original.payload = pattern(64);
    net::Packet copy = original;
    copy.ttl -= 1;
    copy.seq = 6;
    EXPECT_EQ(original.ttl, 10);
    EXPECT_EQ(original.seq, 5u);
    EXPECT_EQ(copy.ttl, 9);
    EXPECT_EQ(copy.payload.data(), original.payload.data());
    EXPECT_TRUE(std::ranges::equal(original.payload, pattern(64)));
}

TEST(Payload, EmptyPayloadHoldsNoBuffer) {
    const std::uint64_t before = g_alloc_count.load();
    const net::Payload none;
    const net::Payload from_empty = std::vector<std::uint8_t>{};
    EXPECT_EQ(g_alloc_count.load(), before) << "an empty payload must not allocate";
    for (const net::Payload* p : {&none, &from_empty}) {
        EXPECT_TRUE(p->empty());
        EXPECT_EQ(p->size(), 0u);
        EXPECT_EQ(p->begin(), p->end());
        const std::span<const std::uint8_t> view = *p;
        EXPECT_TRUE(view.empty());
        EXPECT_FALSE(pim::Register::decode(*p).has_value());
    }
    const net::Payload braced = {0x14, 0x01};
    EXPECT_EQ(braced.size(), 2u);
    EXPECT_EQ(braced.front(), 0x14);
}

TEST(Payload, RegisterRoundTripPreservesBytes) {
    net::Packet data;
    data.src = net::Ipv4Address(10, 0, 1, 2);
    data.dst = kGroup.address();
    data.ttl = 17;
    data.seq = 42;
    data.payload = pattern(1024);

    // Encapsulate exactly as a source DR does (PimSmRouter::send_register)...
    pim::Register reg;
    reg.group = data.dst;
    reg.inner_src = data.src;
    reg.inner_ttl = data.ttl;
    reg.inner_seq = data.seq;
    reg.inner_payload.assign(data.payload.begin(), data.payload.end());
    net::Packet tunnel;
    tunnel.proto = net::IpProto::kIgmp;
    tunnel.payload = reg.encode();

    // ...and decapsulate as the RP does (PimSmRouter::handle_register).
    auto decoded = pim::Register::decode(tunnel.payload);
    ASSERT_TRUE(decoded.has_value());
    net::Packet inner;
    inner.src = decoded->inner_src;
    inner.dst = decoded->group;
    inner.ttl = decoded->inner_ttl;
    inner.seq = decoded->inner_seq;
    inner.payload = decoded->inner_payload;
    EXPECT_EQ(inner.src, data.src);
    EXPECT_EQ(inner.dst, data.dst);
    EXPECT_EQ(inner.ttl, 17);
    EXPECT_EQ(inner.seq, 42u);
    EXPECT_TRUE(std::ranges::equal(inner.payload, data.payload));
}

// A three-level binary router tree: the source's LAN hangs off the root
// (also the RP), and each of the four leaves serves a LAN with two member
// hosts. One packet crosses 11 segments and reaches 15 stations.
struct MemberTree {
    topo::Network net;
    std::vector<topo::Router*> routers;
    topo::Host* source = nullptr;
    std::vector<topo::Host*> members;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<scenario::PimSmStack> stack;

    MemberTree() {
        for (int i = 0; i < 7; ++i) routers.push_back(&net.add_router("R" + std::to_string(i)));
        for (int i = 1; i < 7; ++i) net.add_link(*routers[(i - 1) / 2], *routers[i]);
        source = &net.add_host("src", net.add_lan({routers[0]}));
        for (int leaf = 3; leaf < 7; ++leaf) {
            auto& lan = net.add_lan({routers[leaf]});
            for (int h = 0; h < 2; ++h) {
                members.push_back(&net.add_host(
                    "m" + std::to_string(leaf) + "-" + std::to_string(h), lan));
            }
        }
        routing = std::make_unique<unicast::OracleRouting>(net);
        stack = std::make_unique<scenario::PimSmStack>(net);
        stack->set_rp(kGroup, {routers[0]->router_id()});
        stack->set_spt_policy(pim::SptPolicy::immediate());
        net.run_for(sim::kSecond);
        for (topo::Host* m : members) stack->host_agent(*m).join(kGroup);
        net.run_for(sim::kSecond);
    }

    /// Originates `n` 1 KB packets at one instant and lets them drain;
    /// returns the heap allocations the burst cost.
    std::uint64_t burst(int n) {
        for (topo::Host* m : members) m->clear_received(); // keeps capacity
        const std::uint64_t before = g_alloc_count.load();
        for (int i = 0; i < n; ++i) source->send_data(kGroup, 1024);
        net.run_for(100 * sim::kMillisecond);
        return g_alloc_count.load() - before;
    }
};

TEST(DataPlaneAlloc, SteadyStateAllocatesPerOriginatedPacketOnly) {
    constexpr int kPackets = 200;
    MemberTree tree;
    tree.burst(kPackets); // warm-up: pools, wheel nodes, receive logs

    const std::uint64_t data_before = tree.net.stats().total_data_packets();
    const std::uint64_t allocs = tree.burst(kPackets);
    const std::uint64_t hops = tree.net.stats().total_data_packets() - data_before;

    for (const topo::Host* m : tree.members) {
        ASSERT_EQ(m->received_count(kGroup), static_cast<std::size_t>(kPackets))
            << m->name() << " missed part of the burst";
    }
    EXPECT_EQ(hops, 11u * kPackets) << "the tree is not the expected SPT";
    // Originating a 1 KB packet builds one shared payload: its byte buffer
    // and its reference-count block. Nothing else may allocate per packet —
    // not a hop, an oif copy, a LAN station's delivery, nor accounting; a
    // few one-off allocations per burst are tolerated.
    constexpr std::uint64_t kPerBurstSlack = 16;
    EXPECT_LE(allocs, 2u * kPackets + kPerBurstSlack)
        << allocs << " allocations for " << kPackets << " packets and " << hops
        << " segment crossings";
}

} // namespace
} // namespace pimlib::test
