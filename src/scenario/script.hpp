// Scenario scripts: the one text format for a narrated, asserted multicast
// run. A script holds a topology block (the topo::TopologyBuilder format)
// or a generated transit-stub topology, a protocol selection, optional
// observers and workloads, and a timeline of events and expectations.
// `pimsim` runs one script; the checker builds its worlds from scripts and
// emits its counterexamples as scripts; examples/scenarios/*.pimsim are the
// paper's walkthroughs and the checker's worlds.
//
// Format (one directive per line, '#' starts a comment to the end of the line):
//
//     seed 42                          # one seed reproduces the whole run
//     topology
//       router A B C D
//       lan lan0 A
//       host receiver lan0
//       link A B
//       link B C
//       link B D
//       lan lan1 D
//       host source lan1
//     end
//     # ... or a generated wide-area topology instead of the block:
//     # topology transit-stub transit=2 transit-size=3 stubs=2 stub-size=3 senders=2
//     #   (routers t<domain>-<n> / s<domain>-<n>, bank hosts bankN on LANs
//     #    lanN, sender hosts senderN)
//     protocol pim-sm                  # pim-sm | pim-dm | dvmrp | cbt | mospf
//     rp 224.1.1.1 C                   # pim-sm: RP list; cbt: core
//     candidate-bsr C 20               # pim-sm: bootstrap-elect the BSR
//                                      #   instead (priority, then address)
//     candidate-rp 224.0.0.0/4 C 20    # pim-sm: advertise C to the elected
//                                      #   BSR as RP for the range
//     spt-policy immediate             # immediate | never | threshold M WINDOW_MS
//     trace on                         # wiretap with decoded control messages
//     telemetry off                    # disable event/span tracing (default on)
//     snapshot-every 500ms             # periodic MRIB snapshots
//     monitor trees 100ms              # live tree-health analytics
//     watchdog on                      # online invariant watchdogs (lost/dup
//                                      #   packets, iif-RPF, stale entries)
//     mutate skip-spt-bit-handshake    # a seeded protocol bug (pimcheck --list)
//     provenance on                    # per-packet flight recorder (optional
//                                      #   ring capacity: provenance on 4096)
//     profile on                       # CPU zones; optional ring capacity
//     dump-profile out.collapsed       # end-of-run collapsed stacks + zone table
//     dump-timeline out.json           # causal join-transaction timeline
//                                      #   (Chrome trace-event JSON)
//     workload churn rate=200 mean=2s groups=8 zipf=1.0 bank=1000
//                                      # Poisson join/leave churn over host
//                                      #   banks (also session=exponential|
//                                      #   fixed|pareto shape=A start=T stop=T)
//     workload flash at=1s joins=500 window=200ms hold=1s rank=0
//     workload sender sender0 224.9.0.1 on=1s off=1s interval=50ms
//     at 100ms join receiver 224.1.1.1
//     at 300ms send source 224.1.1.1 count=10 interval=50ms
//     at 900ms fail-link A B           # faults go through fault::FaultInjector
//     at 1500ms heal-link A B
//     at 900ms crash-router B          # all ifaces down, soft state lost
//     at 1500ms restart-router B
//     at 900ms loss-link A B 0.3       # 30% per-frame loss
//     at 900ms loss-lan lan0 0.3
//     at 900ms partition A B C D       # cut links A-B and C-D together
//     at 1500ms heal-partition
//     at 2s leave receiver 224.1.1.1
//     at 2s dump-state                 # every router's MRIB entries
//     at 2s dump-metrics prom          # prom | json registry dump
//     at 2s dump-events                # structured event log
//     at 2s snapshot                   # MRIB snapshot, diffed against the last
//     at 2s mtrace source receiver 224.1.1.1   # hop path of the last delivery
//     at 2s dump-provenance            # recorder JSON + per-router drops
//     at 1s profile off                # runtime profiler toggle
//     run 3s
//
// Expectations are checked when their event fires, in script order with the
// other events of the same instant:
//
//     at 1s expect delivered receiver 224.1.1.1 10     # exactly 10 packets
//     at 6s expect delivered receiver 224.1.1.1 >=25   # at least 25
//     at 1s expect duplicates receiver 224.1.1.1 0     # (source, seq) repeats
//     at 3s expect entry A * 224.1.1.1 rp=E            # A holds (*,G), RP E
//     at 3s expect entry A source 224.1.1.1 spt iif=B  # (S,G) of host source,
//                                                      #   SPT bit, iif on the
//                                                      #   link to B
//     at 3s expect entry U * 224.1.1.1 oif=transit     # oif onto LAN transit
//     at 9s expect no-entry U * 224.1.1.1
//     at 2s expect no-violation                        # needs 'watchdog on'
//
// iif=/oif= name a neighbour router (the point-to-point link to it) or a LAN.
// An expectation the run never reaches counts as failed.
//
// Fault slots and oracles describe a world for the model checker (pimcheck,
// src/check), which judges the oracles at the end of `run`. pimsim checks
// them and runs the baseline, where no fault fires:
//
//     fault-slot 400ms fail-link A C for 350ms | crash-router E
//                            # the checker may inject one candidate (a fault
//                            #   verb; `for D` undoes it D later)
//     oracle delivery seqs=1-18 steady=13-18   # joined hosts hear seqs 1-18
//                            #   from the first sender, seqs 13-18 once each
//     oracle steady-redundancy steady=13-18 crossings=7  # per steady seq
//     oracle steady-iif from=1550ms            # no iif-check drop from then on
//     oracle assert-winner dlan steady=13-18   # one crossing of dlan per seq
//     oracle rp-failover M N rp=R1 backup=R2   # M's and N's (*,G) root at R1,
//                            #   or at R2 once R1 has crashed
//     oracle bsr-rp-rehoming M N rp=R1 backup=R2   # the same, BSR-learned RPs
//     oracle exactly-one-bsr                   # live routers agree on one BSR
//     oracle rp-set-agreement 224.9.9.9        # ... and derive one RP list
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/watchdog.hpp"
#include "provenance/provenance.hpp"
#include "scenario/stacks.hpp"
#include "telemetry/tree_monitor.hpp"
#include "topo/builder.hpp"
#include "trace/tracer.hpp"
#include "unicast/oracle_routing.hpp"
#include "workload/churn.hpp"
#include "workload/topology.hpp"

namespace pimlib::scenario {

struct ScriptResult {
    std::size_t expectations = 0; // expect directives in the script
    /// One "line N: expect … got …" message per expectation that failed.
    std::vector<std::string> failures;

    [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Everything one built script owns. Declaration order is teardown order in
/// reverse: workloads, then the stack, then observers, then the network.
struct World {
    explicit World(std::FILE* o) : out(o) {}

    std::FILE* out;
    topo::Network net;
    std::unique_ptr<topo::TopologyBuilder> topo;
    std::unique_ptr<workload::TransitStubNetwork> generated;
    std::unique_ptr<unicast::OracleRouting> routing;
    std::unique_ptr<fault::FaultInjector> faults;
    std::unique_ptr<trace::PacketTracer> tracer;
    std::unique_ptr<provenance::Recorder> recorder;
    std::unique_ptr<telemetry::TreeMonitor> monitor;
    std::unique_ptr<check::Watchdog> watchdog;
    StackConfig config; // the stack's, mutations included
    std::unique_ptr<StackBase> stack;
    PimSmStack* pim_sm = nullptr; // set when the protocol is pim-sm
    CbtStack* cbt = nullptr;      // set when the protocol is cbt
    std::vector<std::unique_ptr<workload::HostBank>> banks;
    std::unique_ptr<workload::ChurnEngine> churn;
    std::vector<std::unique_ptr<workload::OnOffSender>> senders;

    // Name lookups for both topology sources (the named block and the
    // transit-stub generator); unknown names throw std::runtime_error.
    [[nodiscard]] topo::Router* find_router(const std::string& name) const;
    [[nodiscard]] topo::Router& router_ref(const std::string& name) const;
    [[nodiscard]] topo::Host& host_ref(const std::string& name) const;
    [[nodiscard]] topo::Segment& lan_ref(const std::string& name) const;
    [[nodiscard]] topo::Segment& link_ref(const std::string& a, const std::string& b);
    /// `router`'s interface on the link to neighbour router `toward`, or on
    /// the LAN named `toward`.
    [[nodiscard]] int ifindex_toward(const std::string& router, const std::string& toward);
};

/// One fault a `fault-slot` may inject.
struct FaultCandidate {
    std::string label;  // verb and arguments joined by '-': "fail-link-A-C"
    std::string fault;  // as an event: "fail-link A C"
    std::string repair; // the event that undoes it ("heal-link A C"), or ""
    sim::Time repair_after = 0;
    std::vector<std::string> routers; // the routers the fault names
    std::function<void(World&)> inject;
    std::function<void(World&)> undo; // empty when repair is ""
};

struct FaultSlot {
    sim::Time at = 0;
    std::vector<FaultCandidate> candidates;
};

/// One `oracle` line. Fields the oracle does not take keep their defaults.
struct Oracle {
    std::string name;
    std::vector<std::string> args; // routers, a LAN or a group, as written
    std::pair<std::uint64_t, std::uint64_t> seqs, steady; // seqs=A-B steady=A-B
    int crossings = 0;
    sim::Time from = 0;
    std::string rp, backup;
};

/// A parsed script. pimsim runs it once (run); the checker builds a fresh
/// world from it for every branch it explores (build, then schedule), from
/// any number of threads at once.
class Script {
public:
    /// Parses `text`, narrating later runs to `out`. Throws
    /// std::runtime_error("line N: …") when the script is malformed.
    explicit Script(const std::string& text, std::FILE* out = stdout);
    ~Script();
    Script(const Script&) = delete;
    Script& operator=(const Script&) = delete;

    /// Runs the world for the script's duration with its expectations and
    /// observers, narrating to `out`. Once per Script.
    ScriptResult run();

    /// A fresh world: topology, unicast routing, fault injector, the
    /// script's observers and its stack, with `mutation` (a
    /// check::known_mutations() name, or "") on top of the script's own.
    /// Nothing is scheduled yet.
    [[nodiscard]] std::unique_ptr<World> build(const std::string& mutation) const;
    /// Schedules the script's timed events, but not its expectations.
    void schedule(World& world) const;

    /// The world the script's names were checked against while parsing.
    [[nodiscard]] const World& parsed() const;
    /// The `run` duration.
    [[nodiscard]] sim::Time duration() const;
    [[nodiscard]] const std::vector<FaultSlot>& fault_slots() const;
    [[nodiscard]] const std::vector<Oracle>& oracles() const;
    /// (host, group) of every `join` event, in script order.
    [[nodiscard]] const std::vector<std::pair<std::string, net::GroupAddress>>& joins() const;
    /// The host of the first `send` event, or "" when nothing is sent.
    [[nodiscard]] const std::string& sender() const;

private:
    class Impl;
    std::unique_ptr<Impl> impl_;
};

/// Parses and runs one script, narrating the run to `out`. Throws
/// std::runtime_error("line N: …") when the script is malformed; a failed
/// expectation is not an error but an entry in the result.
ScriptResult run_script(const std::string& text, std::FILE* out = stdout);

} // namespace pimlib::scenario
