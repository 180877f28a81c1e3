// Scaling sweep for the paper's §1.2 efficiency claims: "overhead is
// measured in terms of resources consumed in routers and links, i.e. state,
// processing, and bandwidth", as group count and membership density vary.
//
// A fixed random 16-router internet with 8 edge LANs runs the same workload
// under PIM-SM, DVMRP, MOSPF and CBT:
//   - sparse groups: 2 member LANs per group (the paper's target regime);
//   - dense groups: 7 member LANs per group (where flooding is justified).
//
// Usage: scaling_overhead [--packets N] [--telemetry on|off]
//                         [--metrics prom|json] [--overhead-check PCT]
//                         [--monitor-check PCT]
//
//   --telemetry on       enable event/span tracing during the sweep
//   --metrics prom|json  dump the final run's metric registry after the table
//   --overhead-check PCT run the sweep twice (tracing off, then on) and exit
//                        nonzero if tracing costs more than PCT% wall-clock —
//                        the CI gate keeping instrumentation off the hot path
//   --monitor-check PCT  same twice-run gate, but for the always-on observers:
//                        the second sweep attaches a telemetry::TreeMonitor and
//                        check::Watchdog to every stack (tracing stays off in
//                        both), so the delta prices the budgeted tree walks
//                        plus the incremental invariant sweeps
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "check/watchdog.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/tree_monitor.hpp"
#include "topo/segment.hpp"
#include "unicast/oracle_routing.hpp"

using namespace pimlib;

namespace {

bool g_tracing = false;       // --telemetry on
bool g_observe = false;       // --monitor-check: attach monitor + watchdogs
bool g_profile = false;       // --profile / --profile-check: arm the CPU profiler
std::string g_metrics_format; // --metrics prom|json
std::string g_last_metrics;   // registry dump of the most recent run

scenario::StackConfig fast_config() {
    scenario::StackConfig cfg;
    cfg.igmp.query_interval = 10 * sim::kSecond;
    cfg.igmp.membership_timeout = 25 * sim::kSecond;
    cfg.igmp.other_querier_timeout = 25 * sim::kSecond;
    cfg.host.query_response_max = 1 * sim::kSecond;
    return cfg.scaled(0.01);
}

struct World {
    topo::Network net;
    std::vector<topo::Router*> routers;
    std::vector<topo::Host*> hosts;
    std::unique_ptr<unicast::OracleRouting> routing;

    World() {
        std::mt19937 rng(424242);
        graph::Graph g =
            graph::random_connected_graph({.nodes = 16, .average_degree = 3.0}, rng);
        for (int i = 0; i < 16; ++i) {
            routers.push_back(&net.add_router("r" + std::to_string(i)));
        }
        for (int u = 0; u < 16; ++u) {
            for (const auto& e : g.neighbors(u)) {
                if (e.to > u) net.add_link(*routers[u], *routers[e.to]);
            }
        }
        for (int idx : graph::sample_nodes(16, 8, rng)) {
            auto& lan = net.add_lan({routers[static_cast<std::size_t>(idx)]});
            hosts.push_back(&net.add_host("h" + std::to_string(idx), lan));
        }
        routing = std::make_unique<unicast::OracleRouting>(net);
    }
};

struct Row {
    std::uint64_t data_tx = 0;
    std::uint64_t delivered = 0;
    std::uint64_t control = 0;
    std::size_t state = 0;
};

net::GroupAddress group_n(int n) {
    return net::GroupAddress{net::Ipv4Address(224, 5, static_cast<std::uint8_t>(n / 256),
                                              static_cast<std::uint8_t>(n % 256))};
}

template <typename StackT, typename SetupFn, typename StateFn>
Row run(int groups, int members_per_group, int packets, SetupFn setup,
        StateFn state_of) {
    World w;
    w.net.telemetry().set_tracing(g_tracing);
    StackT stack(w.net, fast_config());
    std::unique_ptr<telemetry::TreeMonitor> monitor;
    std::unique_ptr<check::Watchdog> watchdog;
    if (g_observe) {
        auto caches = [&stack](const topo::Router& r) { return stack.cache_of(r); };
        monitor = std::make_unique<telemetry::TreeMonitor>(w.net, caches);
        monitor->start();
        watchdog = std::make_unique<check::Watchdog>(w.net, caches);
        watchdog->start();
    }
    std::mt19937 rng(777);
    // Per group: pick member hosts; host 0 of the group is also the sender.
    std::vector<std::vector<std::size_t>> group_hosts;
    for (int gi = 0; gi < groups; ++gi) {
        auto idx = graph::sample_nodes(static_cast<int>(w.hosts.size()),
                                       members_per_group + 1, rng);
        group_hosts.emplace_back(idx.begin(), idx.end());
        setup(w, stack, group_n(gi));
    }
    w.net.run_for(300 * sim::kMillisecond);
    for (int gi = 0; gi < groups; ++gi) {
        // Members are all but the first pick; the first pick sends.
        for (std::size_t k = 1; k < group_hosts[gi].size(); ++k) {
            stack.host_agent(*w.hosts[group_hosts[gi][k]]).join(group_n(gi));
        }
    }
    w.net.run_for(500 * sim::kMillisecond);
    for (int gi = 0; gi < groups; ++gi) {
        w.hosts[group_hosts[gi][0]]->send_data(group_n(gi)); // warm-up
    }
    w.net.run_for(1 * sim::kSecond);
    w.net.stats().reset_data_counters();

    for (int gi = 0; gi < groups; ++gi) {
        w.hosts[group_hosts[gi][0]]->send_stream(group_n(gi), packets,
                                                 100 * sim::kMillisecond);
    }
    // Measure state mid-stream (it is soft state: it dissolves afterwards).
    w.net.run_for(packets * 100 * sim::kMillisecond);
    Row row;
    for (auto* router : w.routers) row.state += state_of(stack, *router);
    w.net.run_for(2 * sim::kSecond); // drain in-flight deliveries
    row.data_tx = w.net.stats().total_data_packets();
    row.delivered = w.net.stats().data_delivered();
    row.control = w.net.stats().total_control_messages();
    if (!g_metrics_format.empty()) {
        const telemetry::Registry& reg = w.net.telemetry().registry();
        g_last_metrics = g_metrics_format == "json" ? telemetry::to_json(reg)
                                                    : telemetry::to_prometheus(reg);
    }
    return row;
}

bool g_quiet = false; // suppress table rows during --overhead-check timing
void sweep(int packets);

struct AbTiming {
    double min_a = 0.0; // seconds, best off-run
    double min_b = 0.0; // seconds, best on-run
    double ratio = 1.0; // lower-quartile of per-pair B/A ratios
};

/// CPU seconds consumed by this thread — what the overhead budget is
/// actually about. Wall-clock is unusable for a 5% gate on shared CI
/// hardware: co-tenant load and scheduler steal swing adjacent identical
/// runs by 10-20%, while thread CPU time charges only the cycles the sweep
/// itself burned.
double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Paired CPU-time comparison of two sweep configurations, interleaved
/// A,B,A,B,... The verdict is the *lower quartile of per-pair B/A ratios*,
/// not the ratio of global minima: frequency drift moves adjacent runs
/// together, so each pair's ratio cancels it. The lower quartile (rather
/// than the median) is the gate's noise stance: timing noise is one-sided —
/// it only ever inflates a pair's ratio — while a real regression lifts
/// every pair, so the quartile still trips on real cost but shrugs off the
/// occasional interrupt-storm invocation that would make a 5% budget a
/// coin flip. `flag` is toggled before each sweep.
AbTiming min_ab_seconds(bool& flag, int packets, int reps) {
    AbTiming t;
    std::vector<double> ratios;
    for (int i = 0; i < reps; ++i) {
        double pair_s[2] = {0.0, 0.0};
        // Alternate which side runs first: thermal/boost decay is monotone
        // within an invocation, so a fixed off-then-on order would charge
        // the drift to the "on" side in every single pair.
        const bool first = (i % 2) != 0;
        for (const bool on : {first, !first}) {
            flag = on;
            // Hiccups (interrupts, page faults) only ever make a run more
            // expensive, so the min of two back-to-back sweeps is a far
            // lower-variance sample of the true cost than a single sweep.
            double side = 0.0;
            for (int rep = 0; rep < 2; ++rep) {
                const double start = cpu_seconds();
                sweep(packets);
                const double s = cpu_seconds() - start;
                if (rep == 0 || s < side) side = s;
            }
            pair_s[on ? 1 : 0] = side;
            double& best = on ? t.min_b : t.min_a;
            if (i == 0 || side < best) best = side;
        }
        if (pair_s[0] > 0) ratios.push_back(pair_s[1] / pair_s[0]);
    }
    if (!ratios.empty()) {
        std::sort(ratios.begin(), ratios.end());
        t.ratio = ratios[ratios.size() / 4];
    }
    return t;
}

Row g_sum; // table mode only: accumulated across rows for the normalized line

void print_row(const char* protocol, int groups, int members, const Row& row) {
    if (g_quiet) return;
    g_sum.data_tx += row.data_tx;
    g_sum.delivered += row.delivered;
    g_sum.control += row.control;
    g_sum.state += row.state;
    const double per = row.delivered == 0 ? 0.0
                                          : static_cast<double>(row.data_tx) /
                                                static_cast<double>(row.delivered);
    std::printf("%-8s %-7d %-8d %-9llu %-10llu %-9.2f %-9llu %-6zu\n", protocol,
                groups, members, static_cast<unsigned long long>(row.data_tx),
                static_cast<unsigned long long>(row.delivered), per,
                static_cast<unsigned long long>(row.control), row.state);
}

void sweep(int packets) {
    // --profile-check drives this through min_ab_seconds, which toggles
    // g_profile before each invocation; pick the change up here so both
    // sides of a pair run the identical code path apart from the profiler.
    prof::set_enabled(g_profile);
    for (int groups : {1, 4, 16}) {
        for (int members : {2, 7}) {
            print_row("PIM-SM", groups, members,
                      run<scenario::PimSmStack>(
                          groups, members, packets,
                          [](World& w, scenario::PimSmStack& s, net::GroupAddress g) {
                              s.set_rp(g, {w.routers[0]->router_id()});
                              s.set_spt_policy(pim::SptPolicy::immediate());
                          },
                          [](scenario::PimSmStack& s, const topo::Router& r) {
                              return s.pim_at(r).cache().size();
                          }));
            print_row("DVMRP", groups, members,
                      run<scenario::DvmrpStack>(
                          groups, members, packets,
                          [](World&, scenario::DvmrpStack&, net::GroupAddress) {},
                          [](scenario::DvmrpStack& s, const topo::Router& r) {
                              return s.dvmrp_at(r).cache().size();
                          }));
            print_row("MOSPF", groups, members,
                      run<scenario::MospfStack>(
                          groups, members, packets,
                          [](World&, scenario::MospfStack&, net::GroupAddress) {},
                          [](scenario::MospfStack& s, const topo::Router& r) {
                              return s.mospf_at(r).cache().size();
                          }));
            print_row("CBT", groups, members,
                      run<scenario::CbtStack>(
                          groups, members, packets,
                          [](World& w, scenario::CbtStack& s, net::GroupAddress g) {
                              s.set_core(g, w.routers[0]->router_id());
                          },
                          [](scenario::CbtStack& s, const topo::Router& r) {
                              std::size_t n = 0;
                              for (int gi = 0; gi < 64; ++gi) {
                                  if (s.cbt_at(r).tree_state(group_n(gi)) != nullptr) ++n;
                              }
                              return n;
                          }));
        }
    }
}

} // namespace

int main(int argc, char** argv) {
    const int packets = bench::flag_value(argc, argv, "--packets", 20);
    g_tracing = bench::flag_string(argc, argv, "--telemetry", "off") == "on";
    g_metrics_format = bench::flag_string(argc, argv, "--metrics", "");
    const int overhead_pct = bench::flag_value(argc, argv, "--overhead-check", -1);

    const int reps = bench::flag_value(argc, argv, "--reps", 3);

    if (overhead_pct >= 0) {
        // Wall-clock the identical deterministic sweep with tracing off and
        // on; everything simulated is the same, so the delta is purely the
        // cost of the instrumentation.
        g_quiet = true;
        const AbTiming t = min_ab_seconds(g_tracing, packets, reps);
        const double pct = (t.ratio - 1.0) * 100.0;
        std::printf("{\"telemetry_off_s\":%.3f,\"telemetry_on_s\":%.3f,"
                    "\"overhead_pct\":%.1f,\"budget_pct\":%d}\n",
                    t.min_a, t.min_b, pct, overhead_pct);
        if (pct > overhead_pct) {
            std::fprintf(stderr,
                         "scaling_overhead: telemetry overhead %.1f%% exceeds "
                         "the %d%% budget\n",
                         pct, overhead_pct);
            return 1;
        }
        return 0;
    }

    const int profile_pct = bench::flag_value(argc, argv, "--profile-check", -1);
    if (profile_pct >= 0) {
        // The compiled-in-but-disabled budget. The disabled hot path is one
        // relaxed atomic load + branch per PROF_ZONE — too cheap for a
        // wall-clock A/B to resolve above scheduler noise — so the gate is
        // exact arithmetic instead: (zone entries the sweep executes, counted
        // by one enabled run) x (calibrated per-entry cost of the disabled
        // path, measured by prof::calibrate) against the sweep's disabled
        // CPU seconds. The interleaved-pair A/B (same discipline as
        // --overhead-check) prices the *enabled* profiler and is reported
        // alongside, informationally.
        g_quiet = true;

        // (1) Exact zone-entry count for one sweep, from one enabled run.
        g_profile = true;
        sweep(packets);
        g_profile = false;
        prof::set_enabled(false);
        const std::uint64_t entries = prof::snapshot().total_entries;
        prof::reset();

        // (2) Calibrated per-entry cost of the disabled fast path.
        const prof::Calibration cal = prof::calibrate();

        // (3) CPU seconds of the profiler-disabled sweep, min of 3.
        double base_s = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            const double start = cpu_seconds();
            sweep(packets);
            const double s = cpu_seconds() - start;
            if (rep == 0 || s < base_s) base_s = s;
        }
        const double disabled_cost_s =
            static_cast<double>(entries) * cal.disabled_zone_ns / 1e9;
        const double pct = base_s > 0 ? disabled_cost_s / base_s * 100.0 : 0.0;

        // (4) Informational: enabled-vs-disabled interleaved pairs.
        const AbTiming t = min_ab_seconds(g_profile, packets, reps);
        prof::set_enabled(false);
        const double enabled_pct = (t.ratio - 1.0) * 100.0;

        std::printf(
            "{\"zone_entries\":%llu,\"disabled_zone_ns\":%.3f,"
            "\"clock_read_ns\":%.3f,\n"
            " \"sweep_cpu_s\":%.3f,\"disabled_overhead_pct\":%.4f,"
            "\"budget_pct\":%d,\n"
            " \"enabled_overhead_pct\":%.1f,\"profiler_off_s\":%.3f,"
            "\"profiler_on_s\":%.3f}\n",
            static_cast<unsigned long long>(entries), cal.disabled_zone_ns,
            cal.clock_read_ns, base_s, pct, profile_pct, enabled_pct, t.min_a,
            t.min_b);
        if (entries == 0) {
            std::fprintf(stderr, "scaling_overhead: enabled run entered no "
                                 "zones — the sweep is not instrumented\n");
            return 1;
        }
        if (pct > profile_pct) {
            std::fprintf(stderr,
                         "scaling_overhead: compiled-in-but-disabled profiler "
                         "costs %.4f%% CPU, over the %d%% budget\n",
                         pct, profile_pct);
            return 1;
        }
        return 0;
    }

    const int monitor_pct = bench::flag_value(argc, argv, "--monitor-check", -1);
    if (monitor_pct >= 0) {
        // Same discipline as --overhead-check, but the delta prices the
        // always-on observers: tree-monitor walk ticks plus watchdog sweeps,
        // gap tracking, and per-packet stream accounting.
        g_quiet = true;
        const AbTiming t = min_ab_seconds(g_observe, packets, reps);
        const double pct = (t.ratio - 1.0) * 100.0;
        std::printf("{\"observers_off_s\":%.3f,\"observers_on_s\":%.3f,"
                    "\"overhead_pct\":%.1f,\"budget_pct\":%d}\n",
                    t.min_a, t.min_b, pct, monitor_pct);
        if (pct > monitor_pct) {
            std::fprintf(stderr,
                         "scaling_overhead: monitor+watchdog overhead %.1f%% "
                         "exceeds the %d%% budget\n",
                         pct, monitor_pct);
            return 1;
        }
        return 0;
    }

    std::printf("# Scaling sweep (16 routers, 8 edge LANs, %d packets/sender):\n",
                packets);
    std::printf("# sparse groups have 2 member LANs, dense groups 7 (of 8).\n");
    std::printf("%-8s %-7s %-8s %-9s %-10s %-9s %-9s %-6s\n", "proto", "groups",
                "members", "data_tx", "delivered", "tx/deliv", "control", "state");
    // sweep() arms the profiler from g_profile, so --profile goes through it.
    g_profile = bench::profile_begin(argc, argv);
    sweep(packets);
    bench::profile_end(argc, argv, "scaling_overhead");
    std::printf(
        "# Expected shape (§1.2): for sparse groups, PIM-SM and CBT keep state\n"
        "# and data transmissions proportional to the tree, while DVMRP's\n"
        "# broadcast-and-prune instantiates state at every router and touches\n"
        "# every link periodically; for dense groups the gap narrows — dense-\n"
        "# mode flooding is \"warranted\" when most links lead to receivers.\n");
    if (!g_last_metrics.empty()) {
        std::printf("# --- telemetry registry of the final run (%s) ---\n%s",
                    g_metrics_format.c_str(), g_last_metrics.c_str());
        if (g_metrics_format == "json") std::printf("\n");
    }
    bench::Report norm("scaling_overhead");
    norm.metric("total_control_msgs", static_cast<double>(g_sum.control),
                "msgs", "lower")
        .metric("tx_per_delivery",
                g_sum.delivered == 0 ? 0.0
                                     : static_cast<double>(g_sum.data_tx) /
                                           static_cast<double>(g_sum.delivered),
                "packets", "lower")
        .metric("total_state_entries", static_cast<double>(g_sum.state),
                "entries", "info");
    norm.emit();
    return 0;
}
