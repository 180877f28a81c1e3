// Engineering microbenchmarks (google-benchmark): the per-packet and
// per-message costs that §1.2 counts as "processing" overhead — message
// codecs, RIB longest-prefix match, forwarding-cache lookup, the data-plane
// fast path, and simulator event throughput.
#include <benchmark/benchmark.h>

#include <random>

#include "mcast/forwarding_cache.hpp"
#include "pim/messages.hpp"
#include "sim/simulator.hpp"
#include "topo/network.hpp"
#include "unicast/oracle_routing.hpp"
#include "unicast/rib.hpp"

namespace {

using namespace pimlib;

const net::GroupAddress kGroup{net::Ipv4Address(224, 1, 1, 1)};

pim::JoinPrune sample_join_prune(int entries) {
    pim::JoinPrune msg;
    msg.upstream_neighbor = net::Ipv4Address(10, 0, 0, 2);
    msg.holdtime_ms = 180000;
    msg.group = kGroup.address();
    for (int i = 0; i < entries; ++i) {
        msg.joins.push_back(pim::AddressEntry{
            net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i), 3),
            pim::EntryFlags{false, false}});
        msg.prunes.push_back(pim::AddressEntry{
            net::Ipv4Address(10, 2, static_cast<std::uint8_t>(i), 3),
            pim::EntryFlags{false, true}});
    }
    return msg;
}

void BM_JoinPruneEncode(benchmark::State& state) {
    const auto msg = sample_join_prune(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(msg.encode());
    }
}
BENCHMARK(BM_JoinPruneEncode)->Arg(1)->Arg(8)->Arg(64);

void BM_JoinPruneDecode(benchmark::State& state) {
    const auto bytes = sample_join_prune(static_cast<int>(state.range(0))).encode();
    for (auto _ : state) {
        benchmark::DoNotOptimize(pim::JoinPrune::decode(bytes));
    }
}
BENCHMARK(BM_JoinPruneDecode)->Arg(1)->Arg(8)->Arg(64);

void BM_RegisterCodec(benchmark::State& state) {
    pim::Register reg;
    reg.group = kGroup.address();
    reg.inner_src = net::Ipv4Address(10, 0, 1, 3);
    reg.inner_ttl = 63;
    reg.inner_payload.assign(static_cast<std::size_t>(state.range(0)), 0xAB);
    for (auto _ : state) {
        const auto bytes = reg.encode();
        benchmark::DoNotOptimize(pim::Register::decode(bytes));
    }
}
BENCHMARK(BM_RegisterCodec)->Arg(64)->Arg(512)->Arg(1400);

void BM_RibLongestPrefixMatch(benchmark::State& state) {
    unicast::Rib rib;
    std::mt19937 rng(1);
    std::uniform_int_distribution<std::uint32_t> addr;
    const int routes = static_cast<int>(state.range(0));
    for (int i = 0; i < routes; ++i) {
        const int len = 8 + (i % 25);
        rib.set_route(unicast::Route{net::Prefix{net::Ipv4Address{addr(rng)}, len}, 1,
                                     net::Ipv4Address(10, 0, 0, 2), 1});
    }
    std::vector<net::Ipv4Address> probes;
    for (int i = 0; i < 256; ++i) probes.emplace_back(addr(rng));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(rib.lookup(probes[i++ & 255]));
    }
}
BENCHMARK(BM_RibLongestPrefixMatch)->Arg(16)->Arg(256)->Arg(4096);

void BM_ForwardingCacheLookup(benchmark::State& state) {
    mcast::ForwardingCache cache;
    const int entries = static_cast<int>(state.range(0));
    std::vector<net::Ipv4Address> sources;
    for (int i = 0; i < entries; ++i) {
        const net::Ipv4Address src(10, 1, static_cast<std::uint8_t>(i / 256),
                                   static_cast<std::uint8_t>(i % 256));
        auto& e = cache.ensure_sg(src, kGroup);
        e.set_iif(0);
        e.pin_oif(1);
        sources.push_back(src);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.find_sg(sources[i++ % sources.size()], kGroup));
    }
}
BENCHMARK(BM_ForwardingCacheLookup)->Arg(16)->Arg(1024)->Arg(16384);

void BM_DataPlaneForward(benchmark::State& state) {
    // One router with an (S,G) entry fanning out to `range` interfaces.
    topo::Network net;
    auto& r = net.add_router("r");
    auto& in_lan = net.add_lan({&r});
    auto& src = net.add_host("src", in_lan);
    const int fanout = static_cast<int>(state.range(0));
    for (int i = 0; i < fanout; ++i) net.add_lan({&r});
    mcast::ForwardingCache cache;
    mcast::DataPlane plane(r, cache);
    auto& sg = cache.ensure_sg(src.address(), kGroup);
    sg.set_iif(0);
    sg.set_spt_bit(true);
    for (int i = 1; i <= fanout; ++i) sg.pin_oif(i);

    net::Packet packet;
    packet.src = src.address();
    packet.dst = kGroup.address();
    packet.proto = net::IpProto::kUdp;
    packet.payload = std::vector<std::uint8_t>(64, 0xAB);
    for (auto _ : state) {
        plane.on_multicast_data(0, packet);
        // Drain the delivery events so the queue does not grow unboundedly.
        net.simulator().run();
    }
}
BENCHMARK(BM_DataPlaneForward)->Arg(1)->Arg(4)->Arg(16);

void BM_SimulatorEventThroughput(benchmark::State& state) {
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulator sim;
        int counter = 0;
        for (int i = 0; i < 1000; ++i) {
            sim.schedule(i, [&counter] { ++counter; });
        }
        state.ResumeTiming();
        sim.run();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_OracleRecompute(benchmark::State& state) {
    topo::Network net;
    std::vector<topo::Router*> routers;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) routers.push_back(&net.add_router("r" + std::to_string(i)));
    for (int i = 1; i < n; ++i) net.add_link(*routers[i - 1], *routers[i]);
    for (int i = 0; i + 4 < n; i += 4) net.add_link(*routers[i], *routers[i + 4]);
    unicast::OracleRouting routing(net);
    for (auto _ : state) {
        routing.recompute();
    }
}
BENCHMARK(BM_OracleRecompute)->Arg(8)->Arg(32)->Arg(128);

} // namespace

BENCHMARK_MAIN();
